package ctlplane

import (
	"fmt"
	"testing"

	"swizzleqos/internal/noc"
)

// BenchmarkCtlPlaneIdle measures the steady-state cycle cost with the
// control plane attached but quiescent: live reservations generated
// through the plane's own admission path, one lease parked far past the
// run, no journal and no snapshot grid. The acceptance bar is zero
// allocations per cycle — attaching the control plane must not
// reintroduce heap traffic into the engine's hot loop (the same
// invariant benchguard gates for the bare switch benchmarks).
func BenchmarkCtlPlaneIdle(b *testing.B) {
	p, err := New(SimConfig{Radix: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cmds := []string{
		"add gb 0 1 rate=0.30 len=8 load=0.60",
		"add gb 2 3 rate=0.25 len=8 load=0.50",
		"add gl 4 5 rate=0.03 len=4 latency=400 burst=2",
		"add gb 6 7 rate=0.20 len=8 load=0.40 lease=1000000000",
	}
	for _, line := range cmds {
		cmd, err := ParseCommand(line)
		if err != nil {
			b.Fatal(err)
		}
		if res := p.Apply(cmd); !res.OK {
			b.Fatalf("apply %q: %v", line, res)
		}
	}
	// Warm until the packet pool's high-water mark settles, so a short
	// guarded run sees no late pool-growth allocations.
	if err := p.Advance(20000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.Advance(noc.Cycle(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCtlPlaneChurned measures the steady-state cycle cost of a
// plane that has churned: 48 leased reservations have expired, so their
// flows stay attached to the switch, stopped, next to live open- and
// closed-loop sources whose deliveries re-arm generation. Stopped flows
// must cost nothing per cycle, and the closed-loop feedback path (slice
// lookup, Completed, calendar re-arm) must not allocate: the gate is
// zero allocations per cycle, as for BenchmarkCtlPlaneIdle.
func BenchmarkCtlPlaneChurned(b *testing.B) {
	p, err := New(SimConfig{Radix: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	apply := func(line string) {
		cmd, err := ParseCommand(line)
		if err != nil {
			b.Fatal(err)
		}
		if res := p.Apply(cmd); !res.OK {
			b.Fatalf("apply %q: %v", line, res)
		}
	}
	const expired = 48
	for i := 0; i < expired; i++ {
		apply(fmt.Sprintf("add gb %d %d rate=0.05 len=4 load=0.2 lease=%d", i%16, (i/16+1+i)%16, 200+10*i))
	}
	if err := p.Advance(2000); err != nil {
		b.Fatal(err)
	}
	for _, line := range []string{
		"add gb 0 1 rate=0.20 len=8 users=4",
		"add gb 3 2 rate=0.15 len=4 users=3",
		"add gl 5 6 rate=0.02 len=4 latency=400 burst=2 users=2",
		"add gb 7 8 rate=0.20 len=8 load=0.30",
		"add gl 9 10 rate=0.02 len=4 latency=400 burst=2",
	} {
		apply(line)
	}
	if st := p.Stats(); st.Expired != expired || p.Table().Len() != 5 {
		b.Fatalf("churn did not settle: %d expired, %d live", st.Expired, p.Table().Len())
	}
	// Warm until the packet pool's high-water mark settles.
	if err := p.Advance(20000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.Advance(noc.Cycle(b.N)); err != nil {
		b.Fatal(err)
	}
}
