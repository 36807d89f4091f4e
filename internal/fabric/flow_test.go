package fabric

import (
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// buildSources assembles a mixed-generator source set: every stock
// generator kind, several flows per group, so the differential test
// exercises the calendar's tie-breaking, the blocked re-arm, and the
// group depth accounting together.
func buildSources(seq *traffic.Sequence) *Sources {
	mk := func(dst int, class noc.Class, rate float64) noc.FlowSpec {
		return noc.FlowSpec{Src: 0, Dst: dst, Class: class, Rate: rate, PacketLength: 4}
	}
	s := NewSources(3)
	s.Add(traffic.Flow{Spec: mk(1, noc.BestEffort, 0), Gen: traffic.NewBernoulli(seq, mk(1, noc.BestEffort, 0), 0.4, 11)}, 0)
	s.Add(traffic.Flow{Spec: mk(2, noc.BestEffort, 0), Gen: traffic.NewBursty(seq, mk(2, noc.BestEffort, 0), 0.5, 3, 22)}, 0)
	s.Add(traffic.Flow{Spec: mk(3, noc.GuaranteedLatency, 0), Gen: traffic.NewPeriodic(seq, mk(3, noc.GuaranteedLatency, 0), 9, 4)}, 1)
	s.Add(traffic.Flow{Spec: mk(1, noc.BestEffort, 0), Gen: traffic.NewBacklogged(seq, mk(1, noc.BestEffort, 0), 2)}, 1)
	s.Add(traffic.Flow{Spec: mk(2, noc.BestEffort, 0), Gen: traffic.NewTrace(seq, mk(2, noc.BestEffort, 0), []noc.Cycle{3, 3, 7, 50, 50, 51, 200})}, 2)
	s.Add(traffic.Flow{Spec: mk(3, noc.BestEffort, 0), Gen: traffic.NewBernoulli(seq, mk(3, noc.BestEffort, 0), 0.1, 33)}, 2)
	return s
}

// generatePolled is the per-cycle reference protocol the calendar must
// reproduce: poll every generator that was not stopped, in flow order,
// with its current queue depth. A set driven only through it never
// starts its calendar, so AdmitGroup and Wake leave the calendar alone.
func (s *Sources) generatePolled(now noc.Cycle) uint64 {
	var injected uint64
	for i, fq := range s.flows {
		if s.stopped[i] {
			continue
		}
		if p := fq.Flow.Gen.Tick(now, fq.Queued()); p != nil {
			s.record(i, fq, p)
			injected++
		}
	}
	return injected
}

// admitPattern runs one cycle of a deterministic admission pattern over
// every group and appends what it observes — the admitted packet ID (or
// ^0) and the group depth — to trace. The accept rule shifts with the
// cycle: sometimes reject everything, sometimes accept only even-ID
// heads, sometimes accept all, driving rotation, rejection and pops.
func admitPattern(s *Sources, t noc.Cycle, trace []uint64, admitted func(*noc.Packet)) []uint64 {
	for g := 0; g < s.Groups(); g++ {
		mode := (uint64(t) + uint64(g)) % 3
		try := func(p *noc.Packet) bool {
			switch mode {
			case 0:
				return false
			case 1:
				return p.ID%2 == 0
			default:
				return true
			}
		}
		if p := s.AdmitGroup(g, try); p != nil {
			trace = append(trace, p.ID)
			if admitted != nil {
				admitted(p)
			}
		} else {
			trace = append(trace, ^uint64(0))
		}
		trace = append(trace, uint64(s.GroupQueued(g)))
	}
	return trace
}

// driveSources runs generation (the calendar, or the polled oracle)
// plus the admission pattern and returns a trace of everything
// observable: injections, admitted packet IDs, and per-group depths
// each cycle.
func driveSources(s *Sources, cycles noc.Cycle, polled bool) []uint64 {
	var trace []uint64
	for t := noc.Cycle(0); t < cycles; t++ {
		if polled {
			trace = append(trace, s.generatePolled(t))
		} else {
			trace = append(trace, s.Generate(t))
		}
		trace = admitPattern(s, t, trace, nil)
	}
	return trace
}

// sameTrace fails the test at the first divergence of two traces.
func sameTrace(t *testing.T, polled, calendar []uint64) {
	t.Helper()
	if len(polled) != len(calendar) {
		t.Fatalf("trace lengths differ: polled %d, calendar %d", len(polled), len(calendar))
	}
	for i := range polled {
		if polled[i] != calendar[i] {
			t.Fatalf("traces diverge at element %d: polled %d, calendar %d", i, polled[i], calendar[i])
		}
	}
}

// TestSourcesEventDrivenMatchesPolled is the whole-layer differential:
// identical flow sets driven through the calendar and the polled oracle
// produce bit-identical observable traces.
func TestSourcesEventDrivenMatchesPolled(t *testing.T) {
	var seqA, seqB traffic.Sequence
	ref := buildSources(&seqA)
	ev := buildSources(&seqB)
	sameTrace(t, driveSources(ref, 3000, true), driveSources(ev, 3000, false))
	if ref.started || !ev.started {
		t.Fatal("the oracle must never start its calendar, the calendar run must")
	}
}

// nonScheduler wraps a generator, hiding its Scheduler face.
type nonScheduler struct{ g traffic.Generator }

func (n nonScheduler) Tick(now noc.Cycle, queued int) *noc.Packet { return n.g.Tick(now, queued) }

// TestSourcesNonSchedulerMatchesPolled: generators that cannot predict
// their arrivals join the calendar through the per-cycle adapter, next
// to scheduling ones, and the set still matches the polled oracle —
// including a depth-bounded source whose Tick reads the queue depth.
func TestSourcesNonSchedulerMatchesPolled(t *testing.T) {
	build := func(seq *traffic.Sequence) *Sources {
		s := buildSources(seq)
		spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
		s.Add(traffic.Flow{Spec: spec, Gen: nonScheduler{traffic.NewBernoulli(seq, spec, 0.5, 44)}}, 0)
		s.Add(traffic.Flow{Spec: spec, Gen: nonScheduler{traffic.NewBacklogged(seq, spec, 3)}}, 2)
		return s
	}
	var seqA, seqB traffic.Sequence
	ref, ev := build(&seqA), build(&seqB)
	sameTrace(t, driveSources(ref, 3000, true), driveSources(ev, 3000, false))
	for _, i := range []int{ev.Len() - 2, ev.Len() - 1} {
		if _, ok := ev.sched[i].(*pollEvery); !ok {
			t.Fatalf("flow %d runs through %T, want the per-cycle adapter", i, ev.sched[i])
		}
	}
}

// dynWorld is one side of the dynamic differential: a source set, its
// packet sequence, its closed-loop sources by flow index, and the
// admitted closed-loop packets still on their way to delivery.
type dynWorld struct {
	seq      traffic.Sequence
	s        *Sources
	loops    map[int]*traffic.ClosedLoop
	inflight []dynPacket
	trace    []uint64
}

// dynPacket is an admitted closed-loop packet awaiting its delivery.
type dynPacket struct {
	flow int
	id   uint64
	at   noc.Cycle
}

// TestSourcesDynamicMatchesPolled drives the calendar and the polled
// oracle through one random schedule of mid-run adds (every stock
// generator, the per-cycle adapter and closed-loop sources), stops of
// flows whose queues still hold packets, and a stub delivery network
// that feeds closed-loop sources their completions a fixed latency
// after admission. It drops every fifth packet, so short response
// deadlines expire and wake-ups that emit nothing occur. The calendar
// side re-arms a closed-loop flow after each completion (Wake), as the
// control plane does. Every injection count, admitted packet ID, group
// depth and closed-loop counter must agree.
func TestSourcesDynamicMatchesPolled(t *testing.T) {
	const (
		groups  = 4
		cycles  = 6000
		latency = 7
	)
	for _, seed := range []uint64{1, 2, 3} {
		plan := traffic.NewRNG(seed)
		worlds := [2]*dynWorld{} // 0: polled oracle, 1: calendar
		for w := range worlds {
			worlds[w] = &dynWorld{s: NewSources(groups), loops: map[int]*traffic.ClosedLoop{}}
		}
		// add attaches the same new flow to both worlds. Dst carries the
		// flow index (Sources never reads it), so a delivered packet
		// names its flow.
		add := func(now noc.Cycle) {
			kind, group, gseed := plan.Intn(8), plan.Intn(groups), plan.Uint64()
			spec := noc.FlowSpec{Src: group, Dst: worlds[0].s.Len(), Class: noc.BestEffort, PacketLength: 1 + plan.Intn(4)}
			think, timeout := noc.CycleOf(uint64(plan.Intn(3))), noc.CycleOf(uint64(20+plan.Intn(40)))
			users := 1 + plan.Intn(3)
			for w, wd := range worlds {
				var gen traffic.Generator
				switch kind {
				case 0:
					gen = traffic.NewBernoulli(&wd.seq, spec, 0.3, gseed)
				case 1:
					gen = traffic.NewBursty(&wd.seq, spec, 0.3, 3, gseed)
				case 2:
					gen = traffic.NewPeriodic(&wd.seq, spec, noc.CycleOf(5+gseed%20), noc.CycleOf(gseed%50))
				case 3:
					gen = traffic.NewBacklogged(&wd.seq, spec, 1+int(gseed%3))
				case 4:
					at := now + noc.CycleOf(gseed%40)
					gen = traffic.NewTrace(&wd.seq, spec, []noc.Cycle{at / 2, at, at, at + 9, at + 300})
				case 5:
					gen = nonScheduler{traffic.NewBernoulli(&wd.seq, spec, 0.2, gseed)}
				default:
					cl := traffic.NewClosedLoop(&wd.seq, spec, traffic.ClosedLoopConfig{
						Users: users, ThinkMin: think, ThinkMax: think + 25, SizeMin: 1, SizeMax: 4, Timeout: timeout,
					}, gseed)
					wd.loops[wd.s.Len()] = cl
					gen = cl
					if w == 1 {
						gen = cl.Schedule()
					}
				}
				wd.s.Add(traffic.Flow{Spec: spec, Gen: gen}, group)
			}
		}
		for i := 0; i < 6; i++ {
			add(0)
		}
		var midAdds, stopsQueued int
		for now := noc.Cycle(0); now < cycles; now++ {
			// Control events land between cycles, as the control plane
			// applies commands between engine steps.
			if now > 0 && plan.Intn(30) == 0 {
				add(now)
				midAdds++
			}
			if plan.Intn(80) == 0 {
				ref, n := worlds[0].s, worlds[0].s.Len()
				i := plan.Intn(n)
				for k := 0; k < n && plan.Intn(2) == 0 && (ref.stopped[i] || ref.Flow(i).Queued() == 0); k++ {
					i = (i + 1) % n // mostly, a live flow with a backlog
				}
				if !ref.stopped[i] && ref.Flow(i).Queued() > 0 {
					stopsQueued++
				}
				for _, wd := range worlds {
					wd.s.Stop(i)
				}
			}
			for w, wd := range worlds {
				if w == 0 {
					wd.trace = append(wd.trace, wd.s.generatePolled(now))
				} else {
					wd.trace = append(wd.trace, wd.s.Generate(now))
				}
				wd.trace = admitPattern(wd.s, now, wd.trace, func(p *noc.Packet) {
					if wd.loops[p.Dst] != nil {
						wd.inflight = append(wd.inflight, dynPacket{flow: p.Dst, id: p.ID, at: now + latency})
					}
				})
				// Deliveries land after generation within a cycle, as in
				// the engines; a Wake re-arms from the next cycle.
				for len(wd.inflight) > 0 && wd.inflight[0].at <= now {
					d := wd.inflight[0]
					wd.inflight = wd.inflight[1:]
					if d.id%5 == 0 {
						continue
					}
					wd.loops[d.flow].Completed(now)
					if w == 1 {
						wd.s.Wake(d.flow)
					}
				}
			}
		}
		sameTrace(t, worlds[0].trace, worlds[1].trace)
		var done, timedOut uint64
		for fi, ref := range worlds[0].loops {
			cal := worlds[1].loops[fi]
			if ref.Issued != cal.Issued || ref.Done != cal.Done || ref.TimedOut != cal.TimedOut {
				t.Fatalf("seed %d flow %d: closed-loop counters polled %d/%d/%d, calendar %d/%d/%d", seed, fi,
					ref.Issued, ref.Done, ref.TimedOut, cal.Issued, cal.Done, cal.TimedOut)
			}
			done += ref.Done
			timedOut += ref.TimedOut
		}
		if midAdds == 0 || stopsQueued == 0 || done == 0 || timedOut == 0 {
			t.Fatalf("seed %d: differential too tame: %d mid-run adds, %d stops with a backlog, %d completions, %d timeouts",
				seed, midAdds, stopsQueued, done, timedOut)
		}
	}
}

// TestSourcesEventDrivenBlockedRearm: an idle cycle must not call any
// generator — pin it by checking a backlogged-only set goes quiet once
// full and wakes exactly on the admission pop.
func TestSourcesEventDrivenBlockedRearm(t *testing.T) {
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	s := NewSources(1)
	s.Add(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 2)}, 0)

	if got := s.Generate(0); got != 1 {
		t.Fatalf("cycle 0 generated %d, want 1", got)
	}
	if got := s.Generate(1); got != 1 {
		t.Fatalf("cycle 1 generated %d, want 1", got)
	}
	// Full at depth 2: further cycles are silent.
	for t2 := noc.Cycle(2); t2 < 10; t2++ {
		if got := s.Generate(t2); got != 0 {
			t.Fatalf("cycle %d generated %d while full, want 0", t2, got)
		}
	}
	// Pop one at cycle 10; the flow re-arms for cycle 11.
	s.Generate(10)
	if p := s.AdmitGroup(0, func(*noc.Packet) bool { return true }); p == nil {
		t.Fatal("admission rejected a queued head")
	}
	if got := s.Generate(11); got != 1 {
		t.Fatalf("cycle 11 generated %d after pop, want 1 (re-armed)", got)
	}
	if got := s.Generate(12); got != 0 {
		t.Fatalf("cycle 12 generated %d, want 0 (full again)", got)
	}
}
