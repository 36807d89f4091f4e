package ctlplane

import (
	"fmt"
	"testing"

	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// churnCommand is one generated command line with its apply cycle.
type churnCommand struct {
	at   noc.Cycle
	line string
}

// churnCommands derives a long, seeded operator script on a radix-16
// plane: open- and closed-loop GB adds and GL adds (some leased, so
// leases expire mid-run), removes and resizes of recently assigned ids
// (some of which miss), per-output budget changes and policy flips.
// Most adds are rejected or later revoked, so the switch accumulates
// many attached flows of which few stay live — the shape of a
// long-running daemon.
func churnCommands(seed uint64, n int) []churnCommand {
	rng := traffic.NewRNG(seed)
	rates := []float64{0.05, 0.1, 0.15, 0.2}
	lease := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return fmt.Sprintf(" lease=%d", 500+rng.Intn(4000))
	}
	at, adds := 50, 0
	recent := func() int { return max(1, adds/3-rng.Intn(8)) }
	out := make([]churnCommand, 0, n)
	for i := 0; i < n; i++ {
		at += rng.Intn(61)
		var line string
		switch x := rng.Intn(100); {
		case x < 50:
			adds++
			rate := rates[rng.Intn(len(rates))]
			line = fmt.Sprintf("add gb %d %d rate=%.2f len=%d", rng.Intn(16), rng.Intn(16), rate, 4<<rng.Intn(2))
			switch rng.Intn(3) {
			case 0:
				line += fmt.Sprintf(" users=%d", 1+rng.Intn(4))
			case 1:
				line += fmt.Sprintf(" load=%.3f", rate*1.5)
			}
			line += lease()
		case x < 60:
			adds++
			line = fmt.Sprintf("add gl %d %d rate=%.2f len=4 latency=%d burst=%d%s", rng.Intn(16), rng.Intn(16),
				0.01*float64(1+rng.Intn(3)), 200+rng.Intn(400), 1+rng.Intn(2), lease())
		case x < 72:
			line = fmt.Sprintf("remove %d", recent())
		case x < 86:
			line = fmt.Sprintf("resize %d rate=%.2f%s", recent(), rates[rng.Intn(len(rates))], lease())
		case x < 96:
			line = fmt.Sprintf("budget %d share=%.2f", rng.Intn(16), 0.5+0.05*float64(rng.Intn(10)))
		default:
			line = []string{"policy degrade", "policy reject"}[rng.Intn(2)]
		}
		out = append(out, churnCommand{at: noc.CycleOf(uint64(at)), line: line})
	}
	return out
}

// churnTail is how long the churn golden runs past its last command.
const churnTail = noc.Cycle(3000)

// runChurn applies an n-command churn script to a fresh radix-16 plane
// and returns it finished, plus the number of add commands and
// accepted closed-loop adds the script held.
func runChurn(t *testing.T, withFaults bool, scriptSeed uint64, n int) (p *Plane, adds, closedLoop int) {
	t.Helper()
	cfg := SimConfig{Radix: 16, LMax: 8, GBShare: 0.85, GLShare: 0.05, Seed: 5, SnapEvery: 4000}
	if withFaults {
		cfg.Faults = &faults.Config{Seed: 3, FailStops: []faults.FailStop{
			{Input: true, Port: 6, At: 5000},
			{Input: false, Port: 11, At: 9000},
		}}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := churnCommands(scriptSeed, n)
	for _, c := range script {
		if err := p.AdvanceTo(c.at); err != nil {
			t.Fatal(err)
		}
		cmd, err := ParseCommand(c.line)
		if err != nil {
			t.Fatalf("parse %q: %v", c.line, err)
		}
		res := p.Apply(cmd)
		if cmd.Op == OpAdd {
			adds++
			if res.OK && cmd.Flow.Users > 0 {
				closedLoop++
			}
		}
		if !res.OK && (res.Reason == ReasonFrozen || res.Reason == ReasonJournal || res.Reason == ReasonBadRequest) {
			t.Fatalf("%q at cycle %d: %s", c.line, c.at.Uint(), res)
		}
	}
	if err := p.AdvanceTo(script[len(script)-1].at + churnTail); err != nil {
		t.Fatal(err)
	}
	return p, adds, closedLoop
}

// TestPlaneChurnGolden pins the delivery-trace digest, delivery count,
// counters and plane outcome counters of a long churn script: well over a hundred adds
// including closed-loop sources, leases that expire, removes, resizes,
// budget shrinks and policy flips, with and without fail-stops, plus a
// long script that attaches hundreds of flows. Most of the flows ever
// attached are dead by the end, so the runs exercise generation and
// admission rotation with many stopped sources draining next to live
// closed-loop ones. Any change to the pinned values is a behaviour
// change.
func TestPlaneChurnGolden(t *testing.T) {
	for _, tc := range []struct {
		faults    bool
		seed      uint64
		commands  int
		hash      uint64
		delivered uint64
		want      fabric.Counters
		stats     PlaneStats
	}{
		{
			faults: false, seed: 0x6368, commands: 320, hash: 0x678aba3496dc80e5, delivered: 8547,
			want: fabric.Counters{Injected: 10243, Admitted: 8623, Delivered: 8547, ArbCycles: 30384,
				IdleCycles: 120354, DataCycles: 47294, SkippedOutputs: 120354, SkippedAdmits: 178191},
			stats: PlaneStats{Admitted: 146, RejectedBudget: 19, RejectedOther: 63, Expired: 83, Revoked: 3},
		},
		{
			faults: true, seed: 0x6368, commands: 320, hash: 0x9af46a5392169ce6, delivered: 8227,
			want: fabric.Counters{Injected: 9775, Admitted: 8309, Delivered: 8227, Dropped: 148, ArbCycles: 30049,
				IdleCycles: 119352, DataCycles: 45254},
			stats: PlaneStats{Admitted: 143, RejectedBudget: 16, RejectedOther: 69, Expired: 81, Revoked: 7},
		},
		{
			faults: false, seed: 5, commands: 2400, hash: 0x80c3795a1a95ae81, delivered: 38451,
			want: fabric.Counters{Injected: 103384, Admitted: 39048, Delivered: 38451, ArbCycles: 471703,
				IdleCycles: 508942, DataCycles: 204955, SkippedOutputs: 508942, SkippedAdmits: 1097902},
			stats: PlaneStats{Admitted: 681, RejectedBudget: 435, RejectedOther: 833, Expired: 438, Revoked: 54},
		},
	} {
		p, adds, closedLoop := runChurn(t, tc.faults, tc.seed, tc.commands)
		st := p.Stats()
		if adds < 100 || closedLoop == 0 || st.Expired == 0 || st.Admitted < 30 {
			t.Fatalf("faults=%v: script too tame: %d adds, %d closed-loop accepted, stats %+v", tc.faults, adds, closedLoop, st)
		}
		if p.TraceHash() != tc.hash || p.Delivered() != tc.delivered {
			t.Errorf("faults=%v: trace hash %#016x delivered %d, want %#016x and %d",
				tc.faults, p.TraceHash(), p.Delivered(), tc.hash, tc.delivered)
		}
		if p.Counters() != tc.want {
			t.Errorf("faults=%v: counters diverge:\n got %+v\nwant %+v", tc.faults, p.Counters(), tc.want)
		}
		if st != tc.stats {
			t.Errorf("faults=%v: plane stats %+v, want %+v", tc.faults, st, tc.stats)
		}
	}
}
