package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	if v, ok := percentile(seq(1000), 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v ok=%v, want 990 with 10 samples above", v, ok)
	}
	if v, ok := percentile(seq(999), 99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v ok=%v, want 990 with only 9 samples above", v, ok)
	}
	// Ties at the top: nothing lies strictly above the p99 value.
	xs := seq(1000)
	for i := 980; i < 1000; i++ {
		xs[i] = 5000
	}
	if _, ok := percentile(xs, 99); ok {
		t.Error("p99 inside a run of equal top samples must not qualify")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples must not qualify")
	}
}

func TestHighestPercentile(t *testing.T) {
	p, v, ok := highestPercentile(seq(999), 50, 99, 90, 99.9)
	if !ok || p != 90 || v != 900 {
		t.Errorf("highest qualifying percentile of 1..999 = p%v (%v) ok=%v, want p90 (900)", p, v, ok)
	}
	p, _, ok = highestPercentile(seq(20000), 50, 99, 90, 99.9)
	if !ok || p != 99.9 {
		t.Errorf("highest qualifying percentile of 1..20000 = p%v ok=%v, want p99.9", p, ok)
	}
	if _, _, ok := highestPercentile(seq(15), 50, 99); ok {
		t.Error("15 samples leave fewer than 10 above every candidate; want none")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a.x", Start: 15, End: 20},
		{ID: 6, Name: "other root", Start: 200, End: 210},
	}
	counters := []Counter{
		// Four calls, two timed at 5 ns each: 20 ns estimated, plus 6 ns
		// of clock reads.
		{Parent: 1, Name: "hot", Calls: 4, Sampled: 2, NS: 10, ClockNS: 6},
		{Parent: 5, Name: "hot", Calls: 1, Sampled: 1, NS: 2},
	}
	got := SelfTimes(spans, counters)
	want := map[int]int64{
		1: 100 - 60 - 20 - 6, // children cover [10,60] and [90,100]
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5 - 2,
		6: 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpansAndCounters(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin("outer", "g")
	c := tr.Counter("hot")
	if c.Parent != outer || tr.Counter("hot") != c {
		t.Errorf("counter parent = %d, want %d and the same counter on lookup", c.Parent, outer)
	}
	inner := tr.Begin("inner", "g")
	if tr.Counter("hot") == c {
		t.Error("a counter looked up under the inner span must be the inner span's own")
	}
	tr.End(inner)
	tr.End(outer)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != outer || spans[0].Parent != 0 {
		t.Fatalf("spans = %+v, want inner under outer", spans)
	}
	if spans[0].End < spans[1].End {
		t.Errorf("outer ended before inner: %+v", spans)
	}
}

func TestWrapGenKeepsSchedulerExactly(t *testing.T) {
	var s traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.1, PacketLength: 4}
	timer := &Timer{C: &Counter{}}
	if _, ok := wrapGen(traffic.NewBernoulli(&s, spec, 0.1, 1), timer).(traffic.Scheduler); !ok {
		t.Error("a wrapped Scheduler must still be a traffic.Scheduler")
	}
	polled := traffic.NewClosedLoop(&s, spec, traffic.ClosedLoopConfig{Users: 1, ThinkMin: 1, ThinkMax: 2, SizeMin: 4, SizeMax: 4}, 1)
	if _, ok := wrapGen(polled, timer).(traffic.Scheduler); ok {
		t.Error("a wrapped polled-only generator must not claim to be a traffic.Scheduler")
	}
}

// lowLoadSwitch runs a radix-8 SSVC crossbar at 2% Bernoulli load, with
// every generator behind the timing shim when timer is non-nil, and
// returns its delivery hash and skipped-admission count.
func lowLoadSwitch(t *testing.T, timer *Timer, cycles noc.Cycle) (uint64, uint64) {
	t.Helper()
	const radix = 8
	vt := make([]core.VTime, radix)
	for i := range vt {
		vt[i] = 16
	}
	sw, err := switchsim.New(switchsim.Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
		func(int) arb.Arbiter {
			return core.NewSSVC(core.Config{Radix: radix, CounterBits: 12, SigBits: 4, Policy: core.SubtractRealTime, Vticks: vt})
		})
	if err != nil {
		t.Fatal(err)
	}
	var s traffic.Sequence
	for i := 0; i < radix; i++ {
		spec := noc.FlowSpec{Src: i, Dst: (i * 3) % radix, Class: noc.GuaranteedBandwidth, Rate: 0.02, PacketLength: 8}
		var g traffic.Generator = traffic.NewBernoulli(&s, spec, 0.02, uint64(i)+1)
		if timer != nil {
			g = wrapGen(g, timer)
		}
		if err := sw.AddFlow(traffic.Flow{Spec: spec, Gen: g}); err != nil {
			t.Fatal(err)
		}
	}
	h := uint64(fnvOffset)
	sw.OnDeliver(func(p *noc.Packet) { h = hashPacket(h, p) })
	sw.OnRelease(s.Recycle)
	sw.Run(cycles)
	if sw.Err() != nil || sw.Delivered == 0 {
		t.Fatalf("engine error %v, %d delivered", sw.Err(), sw.Delivered)
	}
	return h, sw.SkippedAdmits
}

func TestGeneratorShimKeepsSourcesEventDriven(t *testing.T) {
	const cycles = 20000
	plainHash, plainSkips := lowLoadSwitch(t, nil, cycles)
	timer := &Timer{C: &Counter{}}
	shimHash, shimSkips := lowLoadSwitch(t, timer, cycles)
	if shimHash != plainHash || shimSkips != plainSkips {
		t.Errorf("with the shim: hash %#x, SkippedAdmits %d; without: %#x, %d", shimHash, shimSkips, plainHash, plainSkips)
	}
	// Polled generation would call Tick once per flow per cycle (160000
	// calls); the calendar calls NextArrival/Emit about twice per packet.
	if timer.C.Calls == 0 || timer.C.Calls >= cycles {
		t.Errorf("generator calls through the shim = %d, want event-driven (0 < calls < %d)", timer.C.Calls, cycles)
	}
}

func TestArbiterShimIsTransparent(t *testing.T) {
	seed := uint64(7)
	plain, err := newXbar(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	shims := &xbarShims{}
	for _, p := range []*Timer{&shims.arbitrate, &shims.granted, &shims.tick, &shims.generate, &shims.observe} {
		p.C = tr.Counter("c")
	}
	traced, err := newXbar(seed, shims)
	if err != nil {
		t.Fatal(err)
	}
	plain.sw.Run(2000)
	traced.sw.Run(2000)
	if plain.hash != traced.hash || plain.sw.Totals() != traced.sw.Totals() {
		t.Errorf("shimmed crossbar diverged: hash %#x vs %#x", traced.hash, plain.hash)
	}
	if _, ok := traced.sw.Arbiter(0).(*timedArbiter); !ok {
		t.Error("traced crossbar's arbiters are not shimmed")
	}
}

type errHolder struct {
	Name string
	Err  error
}

func TestResultErrorsFindsNestedErr(t *testing.T) {
	boom := errors.New("boom")
	v := struct {
		Outcomes []errHolder
		Inner    *errHolder
		ByKey    map[string]errHolder
	}{
		Outcomes: []errHolder{{Name: "ok"}, {Name: "bad", Err: boom}},
		Inner:    &errHolder{Err: boom},
		ByKey:    map[string]errHolder{"k": {Err: boom}},
	}
	if got := resultErrors(reflect.ValueOf(v), 0); len(got) != 3 {
		t.Errorf("resultErrors found %v, want 3 errors", got)
	}
	if got := resultErrors(reflect.ValueOf(errHolder{}), 0); len(got) != 0 {
		t.Errorf("resultErrors on a clean result = %v", got)
	}
}

func TestSuiteCoversEveryExperiment(t *testing.T) {
	if len(suiteRuns) != len(experimentNames) {
		t.Errorf("%d experiment runners for %d names", len(suiteRuns), len(experimentNames))
	}
	for _, name := range experimentNames {
		if suiteRuns[name] == nil {
			t.Errorf("no runner for experiment %q", name)
		}
	}
}

func TestChurnScriptParsesAndIsSeeded(t *testing.T) {
	a, b, c := churnScript(1), churnScript(1), churnScript(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed must give the same script")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same script")
	}
	for i, s := range a {
		if i > 0 && s.at < a[i-1].at {
			t.Fatalf("script not in cycle order at line %d", i)
		}
		if _, err := ctlplane.ParseCommand(s.line); err != nil {
			t.Fatalf("line %d %q: %v", i, s.line, err)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, the
// benchmark's machine-readable description, in step with the metrics the
// program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, cat []Metric) {
		if len(got) != len(cat) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(cat))
			return
		}
		for i, m := range cat {
			if got[i].Name != m.Name || got[i].Unit != m.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.Name, m.Unit)
			}
			if got[i].Better != m.Better {
				t.Errorf("%s: better %q in BENCHMARK.json, %q in the program", m.Name, got[i].Better, m.Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
