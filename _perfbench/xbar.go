package main

import (
	"fmt"
	"runtime"
	"time"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

const (
	xbarRadix  = 64
	xbarWarmup = 3000   // cycles for the packet pool and free lists to settle
	xbarCycles = 100000 // measured cycles per round
	xbarGBRate = 0.4
	xbarLen    = 8
	xbarGLLen  = 4
	xbarGLGap  = 400 // cycles between a GL flow's packets
)

// xbarDefault is the delivery-order hash and counter block of one round
// at the default seed (warm-up plus measured cycles).
var xbarDefault = struct {
	Hash     uint64
	Counters fabric.Counters
}{
	Hash: 0x6336bb82de788d26,
	Counters: fabric.Counters{Injected: 699726, Admitted: 698969, Delivered: 698552, ArbCycles: 698585,
		IdleCycles: 313158, DataCycles: 5580257, SkippedOutputs: 313158, SkippedAdmits: 5192922},
}

// xbarShims holds the timers a traced round's shims share.
type xbarShims struct {
	arbitrate, granted, tick, generate, observe Timer
}

// xbar is one round's saturated radix-64 SSVC crossbar.
type xbar struct {
	sw   *switchsim.Switch
	col  *stats.Collector
	hash uint64
}

// xbarFlows derives the round's flows from the seed: two backlogged GB
// flows per input (rate 0.4 each) to two destinations drawn from
// permutations that never coincide, one backlogged BE flow, and on every
// eighth input a periodic GL flow.
func xbarFlows(seed uint64) []noc.FlowSpec {
	rng := traffic.NewRNG(seed ^ 0x78626172)
	perm := func() []int {
		p := make([]int, xbarRadix)
		for i := range p {
			p[i] = i
		}
		for i := len(p) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	gb1 := perm()
	var gb2 []int
	for clash := true; clash; {
		gb2, clash = perm(), false
		for i := range gb2 {
			clash = clash || gb2[i] == gb1[i]
		}
	}
	be, gl := perm(), perm()
	var specs []noc.FlowSpec
	for i := 0; i < xbarRadix; i++ {
		for _, dst := range []int{gb1[i], gb2[i]} {
			specs = append(specs, noc.FlowSpec{Src: i, Dst: dst, Class: noc.GuaranteedBandwidth,
				Rate: xbarGBRate, PacketLength: xbarLen})
		}
		specs = append(specs, noc.FlowSpec{Src: i, Dst: be[i], Class: noc.BestEffort, PacketLength: xbarLen})
		if i%8 == 0 {
			specs = append(specs, noc.FlowSpec{Src: i, Dst: gl[i], Class: noc.GuaranteedLatency,
				Rate: float64(xbarGLLen) / xbarGLGap, PacketLength: xbarGLLen})
		}
	}
	return specs
}

// newXbar builds the switch, attaches the flows and runs the warm-up.
// With shims non-nil every arbiter, generator and the collector are
// wrapped in timers.
func newXbar(seed uint64, shims *xbarShims) (*xbar, error) {
	specs := xbarFlows(seed)
	vticks := make([][]core.VTime, xbarRadix)
	for o := range vticks {
		vticks[o] = make([]core.VTime, xbarRadix)
	}
	for _, s := range specs {
		if s.Class == noc.GuaranteedBandwidth {
			vticks[s.Dst][s.Src] = s.Vtick()
		}
	}
	glVtick := noc.FlowSpec{Rate: float64(xbarGLLen) / xbarGLGap, PacketLength: xbarGLLen}.Vtick()
	sw, err := switchsim.New(switchsim.Config{Radix: xbarRadix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
		func(out int) arb.Arbiter {
			a := arb.Arbiter(core.NewSSVC(core.Config{
				Radix: xbarRadix, CounterBits: 12, SigBits: 4, Policy: core.SubtractRealTime,
				Vticks: vticks[out], EnableGL: true, GLVtick: glVtick, GLBurst: 2,
			}))
			if shims != nil {
				a = wrapArbiter(a, &shims.arbitrate, &shims.granted, &shims.tick)
			}
			return a
		})
	if err != nil {
		return nil, fmt.Errorf("switchsim.New: %w", err)
	}
	x := &xbar{sw: sw, col: stats.NewCollector(xbarWarmup, 0), hash: fnvOffset}
	seq := new(traffic.Sequence)
	rng := traffic.NewRNG(seed ^ 0x676c)
	for _, s := range specs {
		var g traffic.Generator
		if s.Class == noc.GuaranteedLatency {
			g = traffic.NewPeriodic(seq, s, xbarGLGap, noc.CycleOf(uint64(rng.Intn(xbarGLGap))))
		} else {
			g = traffic.NewBacklogged(seq, s, 4)
		}
		if shims != nil {
			g = wrapGen(g, &shims.generate)
		}
		if err := sw.AddFlow(traffic.Flow{Spec: s, Gen: g}); err != nil {
			return nil, fmt.Errorf("AddFlow: %w", err)
		}
	}
	if shims != nil {
		sw.OnDeliver(func(p *noc.Packet) {
			x.hash = hashPacket(x.hash, p)
			s := shims.observe.Start(p.DeliveredAt)
			x.col.OnDeliver(p)
			shims.observe.Stop(s)
		})
	} else {
		sw.OnDeliver(func(p *noc.Packet) {
			x.hash = hashPacket(x.hash, p)
			x.col.OnDeliver(p)
		})
	}
	sw.OnRelease(seq.Recycle)
	sw.Run(xbarWarmup)
	return x, sw.Err()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashPacket folds a delivered packet's identity and timing into an
// FNV-1a style running hash: equal hashes mean equal delivery order.
func hashPacket(h uint64, p *noc.Packet) uint64 {
	for _, v := range [...]uint64{p.ID, uint64(p.Src), uint64(p.Dst), uint64(p.Class),
		p.CreatedAt.Uint(), p.DeliveredAt.Uint()} {
		h ^= v
		h *= fnvPrime
	}
	return h
}

// xbarOutcome is one finished round.
type xbarOutcome struct {
	setup, run time.Duration
	hash       uint64
	counters   fabric.Counters
	before     fabric.Counters // counters at the end of warm-up
	bytes      uint64          // heap bytes allocated during the measured run
	allocs     uint64
	span       int        // traced: the measured run's span
	shims      *xbarShims // traced: the timers, counting under span
}

// xbarRound builds a switch (timed as setup), runs the measured cycles
// and checks the engine stayed healthy. With a tracer, the setup and the
// measured run are spans and the shims count under them.
func (r *run) xbarRound(traced bool) (xbarOutcome, bool) {
	var out xbarOutcome
	var shims *xbarShims
	var setupSpan int
	if traced {
		setupSpan = r.tracer.Begin("xbar.setup", "")
		shims = r.newXbarShims()
	}
	start := time.Now()
	x, err := newXbar(r.seed, shims)
	out.setup = time.Since(start)
	if traced {
		r.tracer.End(setupSpan)
	}
	if !r.check(err == nil, "xbar64-sat setup: %v", err) {
		return out, false
	}
	out.before = x.sw.Totals()
	var runSpan int
	if traced {
		runSpan = r.tracer.Begin("switchsim.Run", "")
		*shims = *r.newXbarShims() // the shims now count under the measured span
	}
	var m0, m1 runtime.MemStats
	if !traced {
		runtime.ReadMemStats(&m0)
	}
	start = time.Now()
	x.sw.Run(xbarCycles)
	out.run = time.Since(start)
	if traced {
		r.tracer.End(runSpan)
	} else {
		runtime.ReadMemStats(&m1)
		out.bytes, out.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}
	out.hash, out.counters, out.span, out.shims = x.hash, x.sw.Totals(), runSpan, shims
	ok := r.check(x.sw.Err() == nil, "xbar64-sat engine error: %v", x.sw.Err())
	ok = r.check(x.col.TotalPackets() > 0, "xbar64-sat collector counted no deliveries") && ok
	return out, ok
}

// newXbarShims returns timers whose counters live under the innermost open
// span.
func (r *run) newXbarShims() *xbarShims {
	t := func(name string) Timer { return Timer{C: r.tracer.Counter(name), Overhead: r.overhead} }
	return &xbarShims{
		arbitrate: t("core.Arbitrate"),
		granted:   t("core.Granted"),
		tick:      t("core.Tick"),
		generate:  t("traffic.Generator"),
		observe:   t("stats.Collector.OnDeliver"),
	}
}

// checkXbar applies the xbar64-sat oracle across a run's rounds: every
// round reproduces the first's hash and counters, and at the default
// seed the recorded ones.
func (r *run) checkXbar(o xbarOutcome, first *xbarOutcome) {
	if first.hash == 0 {
		*first = o
		r.detail("xbar64-sat.hash", fmt.Sprintf("%#016x", o.hash))
		r.detail("xbar64-sat.counters", o.counters)
		if r.seed == defaultSeed {
			r.check(o.hash == xbarDefault.Hash && o.counters == xbarDefault.Counters,
				"xbar64-sat hash %#x / counters %+v != recorded %#x / %+v at seed %d",
				o.hash, o.counters, xbarDefault.Hash, xbarDefault.Counters, defaultSeed)
		}
		return
	}
	r.check(o.hash == first.hash && o.counters == first.counters,
		"xbar64-sat round hash %#x / counters %+v differ from the run's first %#x / %+v",
		o.hash, o.counters, first.hash, first.counters)
}

func nsPerCycle(d time.Duration) float64 { return float64(d.Nanoseconds()) / xbarCycles }

// xbarMeasurer samples crossbar rounds; each round builds its own
// switch, so every round is also a timed set-up.
type xbarMeasurer struct {
	r            *run
	first        xbarOutcome
	setups, runs []float64
}

func newXbarMeasurer(r *run) measurer { return &xbarMeasurer{r: r} }

func (m *xbarMeasurer) setup() bool { return true }

func (m *xbarMeasurer) sample() bool {
	o, ok := m.r.xbarRound(false)
	if !ok {
		return false
	}
	m.r.checkXbar(o, &m.first)
	m.setups = append(m.setups, o.setup.Seconds())
	m.runs = append(m.runs, nsPerCycle(o.run))
	return true
}

func (m *xbarMeasurer) report(native bool) {
	if native {
		m.r.set("setup_s", median(m.setups))
	}
	m.r.set("sim_ns_per_cycle", median(m.runs))
	m.r.detail("xbar64-sat.rounds", len(m.runs))
}

// xbarTraced alternates untraced and traced rounds. The traced round
// must deliver in the same order with the same counters as the untraced
// one; its shims give the per-layer split of the measured run.
func xbarTraced(r *run) {
	var first xbarOutcome
	var untraced, traced, bytes, allocs []float64
	layers := map[string][]float64{}
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	for end := r.deadline(); len(traced) < 2 || time.Now().Before(end); {
		u, ok := r.xbarRound(false)
		if !ok {
			return
		}
		r.checkXbar(u, &first)
		untraced = append(untraced, nsPerCycle(u.run))
		bytes = append(bytes, float64(u.bytes)/xbarCycles)
		allocs = append(allocs, float64(u.allocs)/xbarCycles)

		t, ok := r.xbarRound(true)
		if !ok {
			return
		}
		r.check(t.hash == u.hash && t.counters == u.counters,
			"xbar64-sat with timing shims: hash %#x / counters %+v, without: %#x / %+v", t.hash, t.counters, u.hash, u.counters)
		traced = append(traced, nsPerCycle(t.run))
		s := t.shims
		add("core.arbitrate_ns", s.arbitrate.C.PerCall())
		add("core.granted_ns", s.granted.C.PerCall())
		add("core.tick_ns_per_cycle", s.tick.C.Total()/xbarCycles)
		add("core.arbitrate_calls_per_cycle", float64(s.arbitrate.C.Calls)/xbarCycles)
		add("core.win_ratio", ratio(s.arbitrate.C.Hits, s.arbitrate.C.Calls))
		add("traffic.generate_ns_per_cycle", s.generate.C.Total()/xbarCycles)
		add("stats.observe_ns_per_delivery", s.observe.C.PerCall())
		self := SelfTimes(r.tracer.Spans(), r.tracer.Counters())[t.span]
		add("switchsim.self_ns_per_cycle", float64(self)/xbarCycles)
	}
	for name, vs := range layers {
		r.set(name, median(vs))
	}
	c, b := first.counters, first.before
	r.set("switchsim.pkts_per_cycle", float64(c.Delivered-b.Delivered)/xbarCycles)
	r.set("switchsim.arb_cycle_share", float64(c.ArbCycles-b.ArbCycles)/(xbarCycles*xbarRadix))
	r.set("switchsim.skipped_outputs_per_cycle", float64(c.SkippedOutputs-b.SkippedOutputs)/xbarCycles)
	r.set("alloc.bytes_per_cycle", median(bytes))
	r.set("alloc.allocs_per_cycle", median(allocs))
	r.set("trace_overhead_ratio", median(traced)/median(untraced))
	r.detail("xbar64-sat.sim_ns_per_cycle", median(untraced))
	r.detail("xbar64-sat.traced_rounds", len(traced))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
