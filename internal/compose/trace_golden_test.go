package compose

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

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

// netTotals is everything a golden run pins besides the trace.
type netTotals struct {
	Counters fabric.Counters
	Faults   faults.Counters
}

// TestComposeGoldenTrace pins the ordered delivery trace and counters
// of a 4-leaf Clos (5 nodes, 16 terminals) under mixed cross-leaf and
// local traffic, with and without faults. The values were recorded from
// the engine before its cycle loop was flattened to a single walk; any
// change to them is a behaviour change.
func TestComposeGoldenTrace(t *testing.T) {
	cases := []struct {
		name   string
		cycles noc.Cycle
		faults *faults.Config
		hash   uint64
		n      int
		want   netTotals
	}{
		{
			name: "clean", cycles: 3000,
			hash: 0x3d1591e891bd0131, n: 3533,
			want: netTotals{Counters: fabric.Counters{Injected: 3572, Admitted: 3563, Delivered: 3533, ArbCycles: 6808,
				IdleCycles: 54722, DataCycles: 34470, SkippedOutputs: 40, SkippedAdmits: 33433}},
		},
		{
			name: "faults", cycles: 2500, faults: &faults.Config{
				Seed:        5,
				CorruptProb: 0.01,
				Stalls:      []faults.StallWindow{{Port: 4, From: 300, Until: 500}},
				FailStops:   []faults.FailStop{{Port: 9, At: 1000, Input: true}},
			},
			hash: 0xf0f847dc6f347bd2, n: 2789,
			want: netTotals{
				Counters: fabric.Counters{Injected: 4319, Admitted: 2812, Delivered: 2789, Dropped: 1503, ArbCycles: 5266,
					IdleCycles: 49119, DataCycles: 25415},
				Faults: faults.Counters{Corruptions: 57, Retransmissions: 57, StallCycles: 200},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := TwoLevelClos(4, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			net, err := New(Config{Topology: topo, BufferFlits: 16})
			if err != nil {
				t.Fatal(err)
			}
			seq := new(traffic.Sequence)
			terms := net.Terminals()
			for i := 0; i < terms; i++ {
				cross := noc.FlowSpec{Src: i, Dst: (i + terms/2) % terms, Class: noc.BestEffort, PacketLength: 4}
				addFlow(t, net, cross, traffic.NewBernoulli(seq, cross, 0.06, uint64(i)+31))
				if i%2 == 0 {
					local := noc.FlowSpec{Src: i, Dst: (i+1)%4 + (i/4)*4, Class: noc.BestEffort, PacketLength: 2}
					if local.Dst != local.Src {
						addFlow(t, net, local, traffic.NewBursty(seq, local, 0.15, 2, uint64(i)+97))
					}
				}
				if i%4 == 1 {
					bk := noc.FlowSpec{Src: i, Dst: (i + 5) % terms, Class: noc.BestEffort, PacketLength: 8}
					addFlow(t, net, bk, traffic.NewBacklogged(seq, bk, 2))
				}
			}
			if tc.faults != nil {
				if err := net.SetFaults(*tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			d := newTraceDigest()
			net.OnDeliver(d.add)
			net.OnRelease(seq.Recycle)
			net.Run(tc.cycles)
			if err := net.Err(); err != nil {
				t.Fatalf("engine froze: %v", err)
			}
			got := netTotals{net.Totals(), net.FaultTotals()}
			if d.h.Sum64() != tc.hash || d.n != tc.n {
				t.Errorf("trace digest %#016x over %d deliveries, want %#016x over %d", d.h.Sum64(), d.n, tc.hash, tc.n)
			}
			if got != tc.want {
				t.Errorf("counters diverge:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
