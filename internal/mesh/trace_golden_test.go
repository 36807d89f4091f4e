package mesh

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

// meshTotals is everything a golden run pins besides the trace.
type meshTotals struct {
	Counters fabric.Counters
	Faults   faults.Counters
}

// TestMeshGoldenTrace pins the ordered delivery trace and counters of a
// 6x6 mesh under dense mixed traffic, with and without faults. The
// values were recorded from the engine before its cycle loop was
// flattened to a single walk; any change to them is a behaviour change.
func TestMeshGoldenTrace(t *testing.T) {
	cases := []struct {
		name   string
		cycles noc.Cycle
		faults *faults.Config
		hash   uint64
		n      int
		want   meshTotals
	}{
		{
			name: "clean", cycles: 3000,
			hash: 0x89245517264fd5d0, n: 7778,
			want: meshTotals{Counters: fabric.Counters{Injected: 7989, Admitted: 7930, Delivered: 7778, ArbCycles: 29283,
				IdleCycles: 404763, DataCycles: 105954, SkippedOutputs: 91430, SkippedAdmits: 128337}},
		},
		{
			name: "faults", cycles: 2500, faults: &faults.Config{
				Seed:        3,
				CorruptProb: 0.01,
				Stalls:      []faults.StallWindow{{Port: 7*5 + int(East), From: 400, Until: 600}},
				FailStops:   []faults.FailStop{{Port: 29, At: 1200, Input: true}},
			},
			hash: 0x278060237f670a59, n: 6322,
			want: meshTotals{
				Counters: fabric.Counters{Injected: 6584, Admitted: 6458, Delivered: 6322, Dropped: 29, ArbCycles: 24099,
					IdleCycles: 339288, DataCycles: 86413},
				Faults: faults.Counters{Corruptions: 230, Retransmissions: 230, StallCycles: 200},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{Width: 6, Height: 6, BufferFlits: 16})
			if err != nil {
				t.Fatal(err)
			}
			seq := new(traffic.Sequence)
			nodes := m.Nodes()
			for i := 0; i < nodes; i++ {
				be := noc.FlowSpec{Src: i, Dst: (i + nodes/2 + 1) % nodes, Class: noc.BestEffort, PacketLength: 4}
				addFlow(t, m, be, traffic.NewBernoulli(seq, be, 0.08, uint64(i)+11))
				if i%3 == 0 {
					burst := noc.FlowSpec{Src: i, Dst: (i*5 + 7) % nodes, Class: noc.BestEffort, PacketLength: 2}
					addFlow(t, m, burst, traffic.NewBursty(seq, burst, 0.2, 3, uint64(i)+211))
				}
				if i%4 == 0 {
					bk := noc.FlowSpec{Src: i, Dst: (i + 1) % nodes, Class: noc.BestEffort, PacketLength: 8}
					addFlow(t, m, bk, traffic.NewBacklogged(seq, bk, 2))
				}
			}
			if tc.faults != nil {
				if err := m.SetFaults(*tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			d := newTraceDigest()
			m.OnDeliver(d.add)
			m.OnRelease(seq.Recycle)
			m.Run(tc.cycles)
			if err := m.Err(); err != nil {
				t.Fatalf("engine froze: %v", err)
			}
			got := meshTotals{m.Totals(), m.FaultTotals()}
			if d.h.Sum64() != tc.hash || d.n != tc.n {
				t.Errorf("trace digest %#016x over %d deliveries, want %#016x over %d", d.h.Sum64(), d.n, tc.hash, tc.n)
			}
			if got != tc.want {
				t.Errorf("counters diverge:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
