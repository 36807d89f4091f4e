package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

const (
	churnRadix     = 16
	churnCmds      = 2400 // commands per round
	churnMeanGap   = 40   // mean cycles between commands
	churnSnapEvery = 5000
	churnTail      = 2000 // cycles run after the last command
)

// stamped is one scripted command line with its apply cycle.
type stamped struct {
	at   noc.Cycle
	line string
}

// churnScript derives a round's command script from the seed: adds of GB
// (open- and closed-loop) and GL reservations, leased and unleased,
// removes and resizes of recent ids, budget changes and policy flips.
// Ids are guessed from the number of adds so far, so some removes and
// resizes miss (a typed not-found answer), as do adds that exceed a
// budget or repeat a live (src, dst, class).
func churnScript(seed uint64) []stamped {
	rng := traffic.NewRNG(seed ^ 0x63687572)
	gbRates := []float64{0.05, 0.1, 0.15, 0.2}
	lease := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return fmt.Sprintf(" lease=%d", 1000+rng.Intn(9000))
	}
	// recent guesses a recently assigned id: about a third of adds are
	// admitted, and ids count admitted adds only.
	recent := func(adds int) int { return max(1, adds/3-rng.Intn(12)) }
	at, adds := 100, 0
	script := make([]stamped, 0, churnCmds)
	for i := 0; i < churnCmds; i++ {
		at += rng.Intn(2*churnMeanGap + 1)
		var line string
		switch x := rng.Intn(100); {
		case x < 45:
			adds++
			rate := gbRates[rng.Intn(len(gbRates))]
			line = fmt.Sprintf("add gb %d %d rate=%.2f len=%d", rng.Intn(churnRadix), rng.Intn(churnRadix), rate, 4<<rng.Intn(2))
			switch rng.Intn(4) {
			case 0:
				line += fmt.Sprintf(" users=%d", 2+rng.Intn(3))
			case 1:
				line += fmt.Sprintf(" load=%.3f", rate*1.5)
			}
			line += lease()
		case x < 55:
			adds++
			line = fmt.Sprintf("add gl %d %d rate=%.2f len=4 latency=%d burst=%d%s", rng.Intn(churnRadix), rng.Intn(churnRadix),
				0.01*float64(1+rng.Intn(3)), 200+rng.Intn(400), 1+rng.Intn(2), lease())
		case x < 70:
			line = fmt.Sprintf("remove %d", recent(adds))
		case x < 85:
			line = fmt.Sprintf("resize %d rate=%.2f%s", recent(adds), gbRates[rng.Intn(len(gbRates))], lease())
		case x < 95:
			line = fmt.Sprintf("budget %d share=%.2f", rng.Intn(churnRadix), 0.5+0.05*float64(rng.Intn(10)))
		default:
			line = []string{"policy degrade", "policy reject"}[rng.Intn(2)]
		}
		script = append(script, stamped{at: noc.CycleOf(uint64(at)), line: line})
	}
	return script
}

func churnConfig(seed uint64) ctlplane.SimConfig {
	return ctlplane.SimConfig{Radix: churnRadix, LMax: 8, GBShare: 0.85, GLShare: 0.05, Seed: seed, SnapEvery: churnSnapEvery}
}

// churnOutcome is one finished round.
type churnOutcome struct {
	setup, wall, recover time.Duration
	ackUS, rejectUS      []float64
	journalBytes         int64
	live, attached       uint64
	cycles               noc.Cycle
	traceHash            uint64
	reasons              map[ctlplane.Reason]int // rejections by reason
	// Traced rounds only.
	parseNS, twinUS []float64 // per command; twinUS for commands the live plane acked
	advance         time.Duration
	twin            time.Duration // host time spent on the twin plane
	readJournal     time.Duration
	rebuild         time.Duration
}

// answer reports whether a rejection is a typed admission answer rather
// than a failure of the plane.
func answer(reason ctlplane.Reason) bool {
	switch reason {
	case ctlplane.ReasonGBBudget, ctlplane.ReasonGLBudget, ctlplane.ReasonGLBound,
		ctlplane.ReasonExists, ctlplane.ReasonNotFound, ctlplane.ReasonPortDown:
		return true
	}
	return false
}

// churnRound runs one scripted round: set up a journaled plane, apply
// every command at its stamp (parse, Apply, advance to the next stamp),
// finish, then recover the journal and compare the recovered plane with
// the live one. Traced rounds also drive a journal-less twin plane with
// the same commands at the same cycles, time each layer, and recover
// through ReadJournal and Rebuild separately.
func (r *run) churnRound(script []stamped, traced bool) (churnOutcome, bool) {
	out := churnOutcome{reasons: map[ctlplane.Reason]int{}}
	dir := filepath.Join(r.out, "journal")
	if err := os.MkdirAll(dir, 0o755); !r.check(err == nil, "ctlplane-churn: %v", err) {
		return out, false
	}
	path := filepath.Join(dir, fmt.Sprintf("churn-%d.jsonl", os.Getpid()))
	defer os.Remove(path)
	cfg := churnConfig(r.seed)

	start := time.Now()
	p, err := ctlplane.New(cfg)
	if err == nil {
		var jr *ctlplane.Journal
		if jr, err = ctlplane.CreateJournal(path); err == nil {
			if err = p.AttachJournal(jr, true); err != nil {
				jr.Close()
			}
		}
	}
	out.setup = time.Since(start)
	if !r.check(err == nil, "ctlplane-churn setup: %v", err) {
		return out, false
	}
	defer p.CloseJournal()
	var twin *ctlplane.Plane
	if traced {
		twin, err = ctlplane.New(cfg)
		if !r.check(err == nil, "ctlplane-churn twin: %v", err) {
			return out, false
		}
	}
	// span opens a traced span; end closes it and returns its duration.
	span := func(name, group string) func() time.Duration {
		if !traced {
			return func() time.Duration { return 0 }
		}
		id := r.tracer.Begin(name, group)
		return func() time.Duration { return r.tracer.End(id) }
	}

	start = time.Now()
	for i, s := range script {
		group := fmt.Sprintf("cmd-%d", i)
		end := span("ctlplane.AdvanceTo", group)
		err := p.AdvanceTo(s.at)
		out.advance += end()
		if !r.check(err == nil, "ctlplane-churn advance to %d: %v", s.at.Uint(), err) {
			return out, false
		}
		if twin != nil {
			end = span("twin.AdvanceTo", group)
			err := twin.AdvanceTo(s.at)
			out.twin += end()
			if !r.check(err == nil, "ctlplane-churn twin advance: %v", err) {
				return out, false
			}
		}

		cmdSpan := span("ctlplane.command", group)
		end = span("ctlplane.ParseCommand", group)
		cmd, err := ctlplane.ParseCommand(s.line)
		if d := end(); traced {
			out.parseNS = append(out.parseNS, float64(d.Nanoseconds()))
		}
		if !r.check(err == nil, "ctlplane-churn parse %q: %v", s.line, err) {
			cmdSpan()
			continue
		}
		end = span("ctlplane.Apply", group)
		t0 := time.Now()
		res := p.Apply(cmd)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		end()
		switch {
		case res.OK:
			out.ackUS = append(out.ackUS, us)
		case answer(res.Reason):
			out.rejectUS = append(out.rejectUS, us)
			out.reasons[res.Reason]++
		default:
			r.fail("ctlplane-churn %q at cycle %d: %s", s.line, s.at.Uint(), res)
		}
		if twin != nil {
			end = span("twin.Apply", group)
			t0 := time.Now()
			tres := twin.Apply(cmd)
			tus := float64(time.Since(t0).Nanoseconds()) / 1e3
			out.twin += end()
			if res.OK {
				out.twinUS = append(out.twinUS, tus)
			}
			r.check(tres.OK == res.OK && tres.ID == res.ID && tres.Reason == res.Reason && tres.RetryAfter == res.RetryAfter,
				"ctlplane-churn twin answered %q with %s, live plane with %s", s.line, tres, res)
		}
		cmdSpan()
	}
	final := script[len(script)-1].at + churnTail
	end := span("ctlplane.AdvanceTo", "tail")
	err = p.AdvanceTo(final)
	out.advance += end()
	if twin != nil && err == nil {
		end = span("twin.AdvanceTo", "tail")
		err = twin.AdvanceTo(final)
		out.twin += end()
	}
	if err == nil {
		err = p.Finish()
	}
	out.wall = time.Since(start) - out.twin
	if err == nil {
		err = p.CloseJournal()
	}
	if !r.check(err == nil && p.Err() == nil, "ctlplane-churn finish: %v (plane: %v)", err, p.Err()) {
		return out, false
	}
	out.cycles, out.traceHash = p.Now(), p.TraceHash()
	out.live, out.attached = uint64(p.Table().Len()), p.Stats().Admitted
	if fi, err := os.Stat(path); err == nil {
		out.journalBytes = fi.Size()
	}
	if twin != nil {
		r.check(twin.TraceHash() == p.TraceHash() && reflect.DeepEqual(twin.Table().State(), p.Table().State()),
			"ctlplane-churn twin plane diverged from the live plane")
	}

	var rec *ctlplane.Plane
	if traced {
		end := span("recovery.ReadJournal", "recovery")
		recs, _, warn, err := ctlplane.ReadJournal(path)
		out.readJournal = end()
		if !r.check(err == nil && warn == "", "ctlplane-churn read journal: %v %s", err, warn) {
			return out, false
		}
		end = span("recovery.Rebuild", "recovery")
		rec, err = ctlplane.Rebuild(recs, ctlplane.ReplayOptions{})
		out.rebuild = end()
		if !r.check(err == nil, "ctlplane-churn rebuild: %v", err) {
			return out, false
		}
	} else {
		start = time.Now()
		var warn string
		rec, warn, err = ctlplane.RecoverFile(path, ctlplane.ReplayOptions{})
		out.recover = time.Since(start)
		if !r.check(err == nil && rec != nil && warn == "", "ctlplane-churn recover: %v %s", err, warn) {
			return out, false
		}
		defer rec.CloseJournal()
	}
	ok := r.check(rec.TraceHash() == p.TraceHash() && rec.Delivered() == p.Delivered() &&
		rec.Counters() == p.Counters() && reflect.DeepEqual(rec.Table().State(), p.Table().State()),
		"ctlplane-churn recovered plane differs from the live one: hash %#x/%#x delivered %d/%d",
		rec.TraceHash(), p.TraceHash(), rec.Delivered(), p.Delivered())
	return out, ok
}

// churnTotals pools a run's rounds.
type churnTotals struct {
	setup, acksPerS, recover []float64
	ackUS, rejectUS, ackP99  []float64
	first                    churnOutcome
}

func (t *churnTotals) add(r *run, o churnOutcome) {
	if t.first.traceHash == 0 {
		t.first = o
		r.detail("ctlplane-churn.trace_hash", fmt.Sprintf("%#016x", o.traceHash))
		r.detail("ctlplane-churn.cycles_per_round", o.cycles.Uint())
		r.detail("ctlplane-churn.rejects_per_round", o.reasons)
		r.detail("ctlplane-churn.live_of_attached", []uint64{o.live, o.attached})
	} else {
		r.check(o.traceHash == t.first.traceHash, "ctlplane-churn round trace hash %#x != first round %#x", o.traceHash, t.first.traceHash)
	}
	t.setup = append(t.setup, o.setup.Seconds())
	t.acksPerS = append(t.acksPerS, float64(len(o.ackUS))/o.wall.Seconds())
	t.recover = append(t.recover, o.recover.Seconds())
	p99, ok := percentile(o.ackUS, 99)
	r.check(ok, "ctlplane-churn: fewer than %d of a round's %d ack samples above its p99", minTail, len(o.ackUS))
	t.ackP99 = append(t.ackP99, p99)
	t.ackUS = append(t.ackUS, o.ackUS...)
	t.rejectUS = append(t.rejectUS, o.rejectUS...)
}

// report sets the churn metrics from the pooled rounds. The ack p99 is
// taken per round (each round has enough acks for at least minTail
// samples above it) and reported as the median over rounds.
func (t *churnTotals) report(r *run, withSetup bool) {
	if withSetup {
		r.set("setup_s", median(t.setup))
	}
	r.set("recover_s", median(t.recover))
	r.set("ctlplane.acks_per_s", median(t.acksPerS))
	r.set("ctlplane.ack_p50_us", median(t.ackUS))
	r.set("ctlplane.ack_p99_us", median(t.ackP99))
	r.set("ctlplane.ack_samples", float64(len(t.ackUS)))
	hp, hv, _ := highestPercentile(t.ackUS, 50, 90, 99, 99.9)
	r.detail("ctlplane-churn.ack_samples", len(t.ackUS))
	r.detail("ctlplane-churn.ack_p99_us_per_round", t.ackP99)
	r.detail("ctlplane-churn.ack_highest_percentile", map[string]float64{"p": hp, "us": hv})
	r.detail("ctlplane-churn.rejects", len(t.rejectUS))
	r.detail("ctlplane-churn.rounds", len(t.setup))
}

// churnMeasurer samples scripted churn rounds; each round sets up its
// own journaled plane, so every round is also a timed set-up.
type churnMeasurer struct {
	r      *run
	script []stamped
	t      churnTotals
}

func newChurnMeasurer(r *run) measurer { return &churnMeasurer{r: r, script: churnScript(r.seed)} }

func (m *churnMeasurer) setup() bool { return true }

func (m *churnMeasurer) sample() bool {
	o, ok := m.r.churnRound(m.script, false)
	if ok {
		m.t.add(m.r, o)
	}
	return ok
}

func (m *churnMeasurer) report(native bool) { m.t.report(m.r, native) }

// churnTraced alternates untraced and traced rounds.
func churnTraced(r *run) {
	script := churnScript(r.seed)
	var t churnTotals
	var untraced, traced []float64
	layers := map[string][]float64{}
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	var last churnOutcome
	for end := r.deadline(); len(traced) < 2 || time.Now().Before(end); {
		u, ok := r.churnRound(script, false)
		if !ok {
			return
		}
		t.add(r, u)
		untraced = append(untraced, u.wall.Seconds())

		round := r.tracer.Begin("ctlplane-churn.round", "")
		o, ok := r.churnRound(script, true)
		r.tracer.End(round)
		if !ok {
			return
		}
		r.check(o.traceHash == u.traceHash, "ctlplane-churn traced round hash %#x != untraced %#x", o.traceHash, u.traceHash)
		traced = append(traced, o.wall.Seconds())
		ack, admit := median(o.ackUS), median(o.twinUS)
		add("ctlplane.parse_ns", median(o.parseNS))
		add("ctlplane.apply_ack_us", ack)
		add("ctlplane.apply_reject_us", median(o.rejectUS))
		add("ctlplane.admit_us", admit)
		add("ctlplane.durable_us", ack-admit)
		add("ctlplane.advance_ns_per_cycle", float64(o.advance.Nanoseconds())/float64(o.cycles.Uint()))
		add("recovery.read_ms", float64(o.readJournal.Nanoseconds())/1e6)
		add("recovery.rebuild_ns_per_cycle", float64(o.rebuild.Nanoseconds())/float64(o.cycles.Uint()))
		last = o
	}
	for name, vs := range layers {
		r.set(name, median(vs))
	}
	r.set("ctlplane.live_flow_ratio", ratio(int64(last.live), int64(last.attached)))
	r.set("ctlplane.reject_ratio", ratio(int64(len(last.rejectUS)), int64(len(last.rejectUS)+len(last.ackUS))))
	r.set("ctlplane.journal_bytes", float64(last.journalBytes))
	r.set("trace_overhead_ratio", median(traced)/median(untraced))
	t.report(r, false)
}
