package switchsim

import (
	"fmt"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// benchSwitch builds a saturated radix-N switch with one GB flow per
// input, uniformly spread across outputs.
func benchSwitch(b *testing.B, radix int, newArb func(int) arb.Arbiter) (*Switch, *traffic.Sequence) {
	b.Helper()
	sw, err := New(Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}, newArb)
	if err != nil {
		b.Fatal(err)
	}
	seq := new(traffic.Sequence)
	for i := 0; i < radix; i++ {
		spec := noc.FlowSpec{
			Src: i, Dst: (i * 7) % radix,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.5,
			PacketLength: 8,
		}
		if err := sw.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}); err != nil {
			b.Fatal(err)
		}
	}
	return sw, seq
}

// BenchmarkSwitchCycle measures simulation speed (cycles/second) for
// saturated switches at the paper's radices under LRG and SSVC.
func BenchmarkSwitchCycle(b *testing.B) {
	for _, radix := range []int{8, 16, 32, 64} {
		vticks := make([]core.VTime, radix)
		for i := range vticks {
			vticks[i] = 16
		}
		arbs := map[string]func(int) arb.Arbiter{
			"LRG": func(int) arb.Arbiter { return arb.NewLRG(radix) },
			"SSVC": func(int) arb.Arbiter {
				return core.NewSSVC(core.Config{
					Radix: radix, CounterBits: 12, SigBits: 4,
					Policy: core.SubtractRealTime, Vticks: vticks,
				})
			},
		}
		for _, name := range []string{"LRG", "SSVC"} {
			b.Run(fmt.Sprintf("radix%d/%s", radix, name), func(b *testing.B) {
				sw, _ := benchSwitch(b, radix, arbs[name])
				sw.Run(1000) // fill pipelines
				b.ReportAllocs()
				b.ResetTimer()
				sw.Run(noc.Cycle(b.N))
				b.ReportMetric(float64(sw.Delivered)/float64(sw.Now()), "pkts/cycle")
			})
		}
	}
}

// BenchmarkSwitchCycleIdle measures the low-load regime the event-driven
// masks target: each input carries a 2%-rate Bernoulli GB flow, so in
// most cycles almost every port is provably idle and the cycle loop
// should touch only the handful with work (admission skips plus
// SkippedOutputs bulk accounting) instead of spinning all radix ports.
func BenchmarkSwitchCycleIdle(b *testing.B) {
	for _, radix := range []int{8, 64} {
		vticks := make([]core.VTime, radix)
		for i := range vticks {
			vticks[i] = 16
		}
		b.Run(fmt.Sprintf("radix%d/SSVC", radix), func(b *testing.B) {
			sw, err := New(Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
				func(int) arb.Arbiter {
					return core.NewSSVC(core.Config{
						Radix: radix, CounterBits: 12, SigBits: 4,
						Policy: core.SubtractRealTime, Vticks: vticks,
					})
				})
			if err != nil {
				b.Fatal(err)
			}
			seq := new(traffic.Sequence)
			for i := 0; i < radix; i++ {
				spec := noc.FlowSpec{
					Src: i, Dst: (i * 7) % radix,
					Class:        noc.GuaranteedBandwidth,
					Rate:         0.02,
					PacketLength: 8,
				}
				if err := sw.AddFlow(traffic.Flow{Spec: spec,
					Gen: traffic.NewBernoulli(seq, spec, 0.02, uint64(i)+1)}); err != nil {
					b.Fatal(err)
				}
			}
			sw.OnRelease(seq.Recycle)
			// At 2% load the packet pool's high-water mark keeps rising
			// for thousands of cycles, so warm long enough that a short
			// guarded run sees at most a few late pool-growth packets.
			sw.Run(20000)
			b.ReportAllocs()
			b.ResetTimer()
			sw.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(sw.SkippedOutputs)/float64(sw.Now()), "skips/cycle")
		})
	}
}

// BenchmarkSwitchCycleRecycled is the steady-state configuration the
// experiments layer runs in: delivered packets are handed back to the
// generator pool via OnRelease, so the cycle loop should report zero
// allocations per cycle once the pipelines and free lists are warm.
func BenchmarkSwitchCycleRecycled(b *testing.B) {
	for _, radix := range []int{8, 16, 32, 64} {
		vticks := make([]core.VTime, radix)
		for i := range vticks {
			vticks[i] = 16
		}
		b.Run(fmt.Sprintf("radix%d/SSVC", radix), func(b *testing.B) {
			sw, seq := benchSwitch(b, radix, func(int) arb.Arbiter {
				return core.NewSSVC(core.Config{
					Radix: radix, CounterBits: 12, SigBits: 4,
					Policy: core.SubtractRealTime, Vticks: vticks,
				})
			})
			sw.OnRelease(seq.Recycle)
			sw.Run(1000) // fill pipelines and prime the free lists
			b.ReportAllocs()
			b.ResetTimer()
			sw.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(sw.Delivered)/float64(sw.Now()), "pkts/cycle")
		})
	}
}
