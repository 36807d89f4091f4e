package switchsim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// traceDigest is a running FNV-1a digest of the ordered delivery trace:
// every field of every delivered packet, packet ID included.
type traceDigest struct {
	h hash.Hash64
	n int
}

func newTraceDigest() *traceDigest { return &traceDigest{h: fnv.New64a()} }

func (d *traceDigest) add(p *noc.Packet) {
	var b [8]byte
	for _, v := range [...]uint64{
		p.ID, uint64(p.Src), uint64(p.Dst), uint64(p.Class), uint64(p.Length),
		p.CreatedAt.Uint(), p.EnqueuedAt.Uint(), p.GrantedAt.Uint(), p.DeliveredAt.Uint(),
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
	d.n++
}

// goldenSwitch assembles a radix-16 switch with mixed traffic —
// saturated GB, bursty BE, periodic GL — under SSVC arbitration, the
// engine configuration the paper's experiments run. mutate adjusts the
// config before construction; newArb overrides the SSVC factory.
func goldenSwitch(t *testing.T, mutate func(*Config), newArb func(int) arb.Arbiter) (*Switch, *traffic.Sequence) {
	t.Helper()
	const radix = 16
	vticks := make([]core.VTime, radix)
	for i := range vticks {
		vticks[i] = 32
	}
	cfg := Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}
	if mutate != nil {
		mutate(&cfg)
	}
	if newArb == nil {
		newArb = func(int) arb.Arbiter {
			return core.NewSSVC(core.Config{
				Radix: radix, CounterBits: 12, SigBits: 4,
				Policy: core.SubtractRealTime, Vticks: vticks,
			})
		}
	}
	sw, err := New(cfg, newArb)
	if err != nil {
		t.Fatal(err)
	}
	seq := new(traffic.Sequence)
	add := func(spec noc.FlowSpec, gen traffic.Generator) {
		addFlow(t, sw, traffic.Flow{Spec: spec, Gen: gen})
	}
	for i := 0; i < radix; i++ {
		gb := noc.FlowSpec{Src: i, Dst: (i * 7) % radix, Class: noc.GuaranteedBandwidth, Rate: 0.25, PacketLength: 8}
		add(gb, traffic.NewBacklogged(seq, gb, 4))
		be := noc.FlowSpec{Src: i, Dst: (i * 3) % radix, Class: noc.BestEffort, PacketLength: 4}
		add(be, traffic.NewBursty(seq, be, 0.3, 3, uint64(i)+101))
		if i%4 == 0 {
			gl := noc.FlowSpec{Src: i, Dst: (i + 5) % radix, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
			add(gl, traffic.NewPeriodic(seq, gl, 97, noc.Cycle(i)))
		}
	}
	return sw, seq
}

// switchTotals is everything a golden run pins besides the trace: the
// common counter block and the crossbar-specific counters.
type switchTotals struct {
	fabric.Counters
	Chained, Preempted, WastedFlits uint64
}

// TestSwitchGoldenTrace pins the crossbar's ordered delivery trace and
// counters on four configurations of the mixed radix-16 switch. The
// values were recorded from the engine before its cycle loop was
// flattened to a single walk; any change to them is a behaviour change.
func TestSwitchGoldenTrace(t *testing.T) {
	pvc := func(int) arb.Arbiter {
		vticks := make([]noc.VTime, 16)
		for i := range vticks {
			if i%2 == 0 {
				vticks[i] = 16 // odd inputs stay unreserved, so preemptible
			}
		}
		return arb.NewPVC(16, vticks, 8)
	}
	// The mixed switch's reserved and unreserved senders never share an
	// output, so the preemption case adds random GL challengers from the
	// reserved (even) inputs onto the outputs unreserved inputs feed.
	challengers := func(sw *Switch, seq *traffic.Sequence) {
		for i := 0; i < 16; i += 2 {
			gl := noc.FlowSpec{Src: i, Dst: i + 1, Class: noc.GuaranteedLatency, Rate: 0.02, PacketLength: 2}
			addFlow(t, sw, traffic.Flow{Spec: gl, Gen: traffic.NewBernoulli(seq, gl, 0.02, uint64(i)+7)})
		}
	}
	cases := []struct {
		name   string
		cycles noc.Cycle
		mutate func(*Config)
		newArb func(int) arb.Arbiter
		extra  func(*Switch, *traffic.Sequence)
		faults *faults.Config
		hash   uint64
		n      int
		want   switchTotals
	}{
		{
			name: "mixed", cycles: 4000,
			hash: 0xc0b5bcdcd4eea0bf, n: 5333,
			want: switchTotals{Counters: fabric.Counters{Injected: 10943, Admitted: 5473, Delivered: 5333, ArbCycles: 5345,
				IdleCycles: 15955, DataCycles: 42700, SkippedOutputs: 15955, SkippedAdmits: 53086}},
		},
		{
			name: "chaining", cycles: 4000, mutate: func(c *Config) { c.PacketChaining = true },
			hash: 0xbd315f28d8b34644, n: 5993,
			want: switchTotals{Counters: fabric.Counters{Injected: 11603, Admitted: 6133, Delivered: 5993, ArbCycles: 16,
				IdleCycles: 15956, DataCycles: 48028, SkippedOutputs: 15956, SkippedAdmits: 51770}, Chained: 5989},
		},
		{
			name: "preemption", cycles: 4000, mutate: func(c *Config) { c.Preemption = true }, newArb: pvc, extra: challengers,
			hash: 0xc83082f7d655298a, n: 7201,
			want: switchTotals{Counters: fabric.Counters{Injected: 12641, Admitted: 7307, Delivered: 7201, ArbCycles: 7216,
				IdleCycles: 1495, DataCycles: 55142, SkippedOutputs: 1495, SkippedAdmits: 48970}, Preempted: 147, WastedFlits: 492},
		},
		{
			name: "failstop", cycles: 3000, faults: &faults.Config{
				Seed:        7,
				CorruptProb: 0.02,
				Stalls:      []faults.StallWindow{{Port: 3, From: 500, Until: 700}},
				FailStops:   []faults.FailStop{{Port: 11, At: 1500}},
			},
			hash: 0xda6b777a218f5404, n: 3691,
			want: switchTotals{Counters: fabric.Counters{Injected: 9461, Admitted: 3830, Delivered: 3691, Dropped: 1768,
				ArbCycles: 3906, IdleCycles: 12294, DataCycles: 30100}, WastedFlits: 568},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw, seq := goldenSwitch(t, tc.mutate, tc.newArb)
			if tc.extra != nil {
				tc.extra(sw, seq)
			}
			if tc.faults != nil {
				if err := sw.SetFaults(*tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			d := newTraceDigest()
			sw.OnDeliver(d.add)
			sw.OnRelease(seq.Recycle)
			sw.Run(tc.cycles)
			if err := sw.Err(); err != nil {
				t.Fatalf("engine froze: %v", err)
			}
			got := switchTotals{sw.Totals(), sw.Chained, sw.Preempted, sw.WastedFlits}
			if d.h.Sum64() != tc.hash || d.n != tc.n {
				t.Errorf("trace digest %#016x over %d deliveries, want %#016x over %d", d.h.Sum64(), d.n, tc.hash, tc.n)
			}
			if got != tc.want {
				t.Errorf("counters diverge:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
