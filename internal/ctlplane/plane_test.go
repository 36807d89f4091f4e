package ctlplane

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
)

// testScript exercises every command type: leased and unleased GB adds,
// a GL add, a closed-loop source, rejections (over-budget, duplicate),
// resize, budget shrink, and a policy flip. The input fail-stop at
// cycle 7000 (testConfig) lands in the middle.
const testScript = `
@100  add gb 0 1 rate=0.3 len=8 load=0.5
@100  add gb 2 1 rate=0.3 len=8 lease=4000
@150  add gb 2 1 rate=0.1 len=8
@200  add gl 3 1 rate=0.04 len=4 latency=400 burst=2
@300  add gb 4 2 rate=0.4 len=8 users=4
@400  add gb 5 2 rate=0.9 len=8
@2000 resize 1 rate=0.2 lease=6000
@3000 add gb 6 3 rate=0.5 len=8 lease=3000
@8000 budget 1 share=0.25
@9000 policy reject
@9500 add gb 5 3 rate=0.2 len=8
`

const testTotal = noc.Cycle(12000)

func testConfig(withFaults bool) SimConfig {
	cfg := SimConfig{
		Radix:     8,
		Seed:      42,
		SnapEvery: 2000,
		Degrade:   true,
	}
	if withFaults {
		cfg.Faults = &faults.Config{Seed: 9, FailStops: []faults.FailStop{
			{Input: true, Port: 4, At: 7000}, // kills the closed-loop flow mid-run
		}}
	}
	return cfg
}

func testSchedule(t *testing.T) []Scheduled {
	t.Helper()
	sched, err := ParseScript(testScript)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// runScripted drives the plane exactly like the daemon's serve loop:
// scripted commands apply at their stamped cycles, entries already
// journaled before a crash (done) are skipped.
func runScripted(t *testing.T, p *Plane, sched []Scheduled, done map[string]bool, total noc.Cycle) {
	t.Helper()
	for {
		now := p.Now()
		for len(sched) > 0 && sched[0].At <= now {
			s := sched[0]
			sched = sched[1:]
			if done[s.Cmd.Tag] || s.At < now {
				continue
			}
			p.Apply(s.Cmd)
		}
		if now >= total {
			return
		}
		next := total
		if len(sched) > 0 && sched[0].At < next {
			next = sched[0].At
		}
		if err := p.Advance(noc.SatSub(next, now)); err != nil {
			t.Fatal(err)
		}
	}
}

// journaledRun executes the test scenario with a journal attached and
// returns the finished plane and the journal path.
func journaledRun(t *testing.T, dir string, total noc.Cycle, finish bool) (*Plane, string) {
	t.Helper()
	path := filepath.Join(dir, "journal.jsonl")
	jr, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	runScripted(t, p, testSchedule(t), nil, total)
	if finish {
		if err := p.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return p, path
}

// doneTags reads the script tags a journal already holds.
func doneTags(t *testing.T, path string) map[string]bool {
	t.Helper()
	recs, _, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	for _, rec := range recs {
		if rec.Kind == KindCmd && rec.Cmd != nil && rec.Cmd.Cmd.Tag != "" {
			done[rec.Cmd.Cmd.Tag] = true
		}
	}
	return done
}

func TestScenarioOutcomes(t *testing.T) {
	p, _ := journaledRun(t, t.TempDir(), testTotal, true)
	st := p.Stats()
	if st.Admitted == 0 || st.RejectedBudget == 0 || st.RejectedOther == 0 {
		t.Fatalf("scenario lost coverage: %+v", st)
	}
	if st.Expired == 0 {
		t.Fatalf("no lease expired: %+v", st)
	}
	if st.Revoked == 0 {
		t.Fatalf("the input fail-stop revoked nothing: %+v", st)
	}
	if p.Delivered() == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestReplayReproducesRun(t *testing.T) {
	p, path := journaledRun(t, t.TempDir(), testTotal, true)
	recs, _, warn, err := ReadJournal(path)
	if err != nil || warn != "" {
		t.Fatalf("clean journal read: err=%v warn=%q", err, warn)
	}
	q, err := Rebuild(recs, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q.TraceHash() != p.TraceHash() || q.Delivered() != p.Delivered() {
		t.Fatalf("replay diverged: hash %016x vs %016x, delivered %d vs %d",
			q.TraceHash(), p.TraceHash(), q.Delivered(), p.Delivered())
	}
	if q.Counters() != p.Counters() {
		t.Fatalf("replay counters diverged:\n%+v\n%+v", q.Counters(), p.Counters())
	}
	if !tableStateEqual(q.Table().State(), p.Table().State()) {
		t.Fatalf("replay admission state diverged")
	}
}

// TestKillRecoverContinue kills the run at many mid-run cycles (journal
// written but neither finished nor cleanly shut down), recovers from
// the journal, re-runs the remaining script, and requires the final
// state to be bit-for-bit the uninterrupted run's — leases, faults, and
// budget churn included.
func TestKillRecoverContinue(t *testing.T) {
	ref, _ := journaledRun(t, t.TempDir(), testTotal, true)
	for _, kill := range []noc.Cycle{0, 99, 2500, 5000, 6999, 7001, 9501, 11999} {
		dir := t.TempDir()
		_, path := journaledRun(t, dir, kill, false) // killed: no end record
		p, warn, err := RecoverFile(path, ReplayOptions{})
		if err != nil {
			t.Fatalf("kill@%d: %v", kill.Uint(), err)
		}
		if warn != "" {
			t.Fatalf("kill@%d: unexpected torn-tail warning %q", kill.Uint(), warn)
		}
		if p == nil {
			t.Fatalf("kill@%d: no plane recovered", kill.Uint())
		}
		if p.Now() > kill {
			t.Fatalf("kill@%d: recovered beyond the kill point, at %d", kill.Uint(), p.Now().Uint())
		}
		runScripted(t, p, testSchedule(t), doneTags(t, path), testTotal)
		if err := p.Finish(); err != nil {
			t.Fatalf("kill@%d: %v", kill.Uint(), err)
		}
		if p.TraceHash() != ref.TraceHash() || p.Delivered() != ref.Delivered() {
			t.Fatalf("kill@%d: resumed run diverged: hash %016x vs %016x, delivered %d vs %d",
				kill.Uint(), p.TraceHash(), ref.TraceHash(), p.Delivered(), ref.Delivered())
		}
		if p.Counters() != ref.Counters() {
			t.Fatalf("kill@%d: counters diverged", kill.Uint())
		}
		if err := p.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornJournalRecovery truncates the journal at every byte offset:
// recovery must never panic and never silently diverge — it recovers
// exactly the longest valid record prefix (warning about the torn
// tail), and continuing the run from there still reproduces the
// uninterrupted final state.
func TestTornJournalRecovery(t *testing.T) {
	const total = noc.Cycle(3200) // small run keeps len(journal) offsets tractable
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	jr, err := CreateJournal(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	runScripted(t, ref, testSchedule(t), nil, total)
	if err := ref.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "torn.jsonl")
	for off := 0; off <= len(data); off++ {
		if err := os.WriteFile(tornPath, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		p, warn, err := RecoverFile(tornPath, ReplayOptions{})
		if err != nil {
			t.Fatalf("offset %d: recovery error: %v", off, err)
		}
		tornTail := off < len(data) && (off == 0 || data[off-1] != '\n')
		if tornTail && warn == "" && p != nil {
			// A cut that leaves a complete-but-unterminated record is
			// warned about too; only cuts at record boundaries are clean.
			t.Fatalf("offset %d: torn tail recovered without a warning", off)
		}
		if p == nil {
			continue // nothing recoverable (cut inside the header): fresh start
		}
		runScripted(t, p, testSchedule(t), doneTags(t, tornPath), total)
		if p.TraceHash() != ref.TraceHash() || p.Delivered() != ref.Delivered() {
			t.Fatalf("offset %d: recovered run diverged: hash %016x vs %016x",
				off, p.TraceHash(), ref.TraceHash())
		}
		if err := p.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		// The resumed journal must itself be cleanly recoverable: a
		// record that survived the cut with only its newline missing must
		// not merge with the first record appended after recovery.
		if _, _, warn, err := ReadJournal(tornPath); err != nil {
			t.Fatalf("offset %d: journal corrupt after resume: %v", off, err)
		} else if warn != "" {
			t.Fatalf("offset %d: journal still torn after resume: %s", off, warn)
		}
	}
}

// TestTornTailResumeThenRecoverAgain crashes twice: first a kill that
// strips only the final record's newline (the record itself survives),
// then — after recovery has resumed and journaled more commands — a
// second kill. The second recovery must replay every record, including
// the reattached tail record and everything appended after it, and the
// finished run must match the uninterrupted reference bit for bit.
func TestTornTailResumeThenRecoverAgain(t *testing.T) {
	ref, _ := journaledRun(t, t.TempDir(), testTotal, true)
	_, path := journaledRun(t, t.TempDir(), 2500, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("journal does not end with a newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	p, warn, err := RecoverFile(path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn, "missing trailing newline") {
		t.Fatalf("want a missing-newline warning, got %q", warn)
	}
	// Resume past cycle 3000 so at least one more command (and the
	// cycle-4000 snapshot) lands after the reattached record.
	runScripted(t, p, testSchedule(t), doneTags(t, path), 5000)
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	q, warn, err := RecoverFile(path, ReplayOptions{})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if warn != "" {
		t.Fatalf("second recovery warned: %q", warn)
	}
	runScripted(t, q, testSchedule(t), doneTags(t, path), testTotal)
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if q.TraceHash() != ref.TraceHash() || q.Delivered() != ref.Delivered() {
		t.Fatalf("twice-recovered run diverged: hash %016x vs %016x, delivered %d vs %d",
			q.TraceHash(), ref.TraceHash(), q.Delivered(), ref.Delivered())
	}
	if q.Counters() != ref.Counters() {
		t.Fatalf("twice-recovered counters diverged")
	}
	if err := q.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteInputsRejected feeds NaN and ±Inf — all reachable from
// the line protocol via strconv.ParseFloat — into every float-accepting
// admission path. Each must come back as a bad-request rejection; a NaN
// that reaches the fixed-point budget math would corrupt the budgets
// with an implementation-defined float-to-uint conversion.
func TestNonFiniteInputsRejected(t *testing.T) {
	tab, err := NewTable(TableConfig{
		Radix: 4, LMax: 8, GLBufferFlits: 16,
		GBShare: 0.8, GLShare: 0.1, Policy: PolicyDegrade,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		req := FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: v, PacketLen: 4}
		if _, rej := tab.Admit(req, 0, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("rate %v admitted (rej=%+v)", v, rej)
		}
		req = FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLen: 4, Load: v}
		if _, rej := tab.Admit(req, 0, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("load %v admitted (rej=%+v)", v, rej)
		}
		if _, rej := tab.SetBudget(1, v, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("budget share %v accepted (rej=%+v)", v, rej)
		}
		if _, err := NewTable(TableConfig{Radix: 4, LMax: 8, GLBufferFlits: 16, GBShare: v, GLShare: 0.1}); err == nil {
			t.Fatalf("GBShare %v config validated", v)
		}
	}
	res, rej := tab.Admit(FlowReq{Src: 2, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLen: 4}, 0, 0)
	if rej != nil {
		t.Fatalf("finite admit rejected: %+v", rej)
	}
	for _, v := range bad {
		if _, rej := tab.Resize(res.ID, v, 0, false, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("resize to %v accepted (rej=%+v)", v, rej)
		}
	}
	if res.Cost == 0 || res.GrantedCost != res.Cost {
		t.Fatalf("surviving reservation disturbed: %+v", res)
	}
}

// TestCorruptMiddleRefused flips a byte well before the journal tail:
// that is corruption, not a torn write, and replay must refuse rather
// than silently drop history.
func TestCorruptMiddleRefused(t *testing.T) {
	_, path := journaledRun(t, t.TempDir(), testTotal, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := bytes.IndexByte(data[len(data)/2:], '"') + len(data)/2
	data[mid] ^= 0x01
	if _, _, _, err := DecodeJournal(data); err == nil {
		t.Fatal("corrupted middle record decoded without error")
	} else if !strings.Contains(err.Error(), "refusing to replay a hole") {
		t.Fatalf("unexpected corruption error: %v", err)
	}
}

// TestRejectedCommandsDontDisturb interleaves a barrage of doomed
// commands (over-budget adds, bogus removes) into the scenario; the
// delivery trace and counters must be identical to the clean run.
func TestRejectedCommandsDontDisturb(t *testing.T) {
	run := func(noise bool) *Plane {
		p, err := New(testConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		sched := testSchedule(t)
		for {
			now := p.Now()
			for len(sched) > 0 && sched[0].At <= now {
				if noise {
					for _, bad := range []string{
						"add gb 0 1 rate=1.0 len=8", // duplicate src or over budget
						"remove 999",
						"resize 999 rate=0.5",
						"budget 99 share=0.5",
						"add gl 1 1 rate=0.9 len=8 latency=1 burst=99",
					} {
						cmd, err := ParseCommand(bad)
						if err != nil {
							t.Fatal(err)
						}
						if r := p.Apply(cmd); r.OK {
							t.Fatalf("noise command %q was accepted", bad)
						}
					}
				}
				p.Apply(sched[0].Cmd)
				sched = sched[1:]
			}
			if now >= testTotal {
				break
			}
			next := testTotal
			if len(sched) > 0 && sched[0].At < next {
				next = sched[0].At
			}
			if err := p.Advance(noc.SatSub(next, now)); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	clean, noisy := run(false), run(true)
	if clean.TraceHash() != noisy.TraceHash() || clean.Counters() != noisy.Counters() {
		t.Fatalf("rejected commands disturbed the run: hash %016x vs %016x",
			clean.TraceHash(), noisy.TraceHash())
	}
	if !tableStateEqual(clean.Table().State(), noisy.Table().State()) {
		t.Fatal("rejected commands disturbed the admission table")
	}
}

// TestPlaneGoldenTraceHash pins the delivery-trace digest and counters
// of the scripted scenario, with and without the mid-run fail-stop. The
// values were recorded before the crossbar's cycle loop was flattened
// to a single walk; any change to them is a behaviour change.
func TestPlaneGoldenTraceHash(t *testing.T) {
	for _, tc := range []struct {
		faults bool
		hash   uint64
		want   fabric.Counters
	}{
		{
			faults: false, hash: 0x27027094493d4ea4,
			want: fabric.Counters{Injected: 1234, Admitted: 1195, Delivered: 1191, ArbCycles: 6938,
				IdleCycles: 79834, DataCycles: 9228, SkippedOutputs: 79834, SkippedAdmits: 93198},
		},
		{
			faults: true, hash: 0xf49a62798879e2c5,
			want: fabric.Counters{Injected: 1094, Admitted: 1055, Delivered: 1051, ArbCycles: 6798,
				IdleCycles: 81094, DataCycles: 8108},
		},
	} {
		p, err := New(testConfig(tc.faults))
		if err != nil {
			t.Fatal(err)
		}
		runScripted(t, p, testSchedule(t), nil, testTotal)
		if p.TraceHash() != tc.hash {
			t.Errorf("faults=%v: trace hash %#016x, want %#016x", tc.faults, p.TraceHash(), tc.hash)
		}
		if p.Counters() != tc.want {
			t.Errorf("faults=%v: counters diverge:\n got %+v\nwant %+v", tc.faults, p.Counters(), tc.want)
		}
	}
}

// TestLeaseExpiryFreesBudget admits a leased reservation that fills the
// budget, watches the over-budget retry hint, and re-admits after the
// deterministic expiry.
func TestLeaseExpiryFreesBudget(t *testing.T) {
	cfg := testConfig(false)
	cfg.GBShare = 0.5
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(line string) Command {
		cmd, err := ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	if r := p.Apply(mk("add gb 0 1 rate=0.5 len=8 lease=1000")); !r.OK {
		t.Fatalf("leased add rejected: %s", r)
	}
	r := p.Apply(mk("add gb 2 1 rate=0.5 len=8"))
	if r.OK || r.Reason != ReasonGBBudget {
		t.Fatalf("expected gb-budget rejection, got %s", r)
	}
	if r.RetryAfter != 1000 {
		t.Fatalf("retry hint %d, want 1000 (the lease expiry)", r.RetryAfter.Uint())
	}
	if err := p.Advance(r.RetryAfter); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Expired != 1 {
		t.Fatalf("expired %d leases, want 1", st.Expired)
	}
	if r := p.Apply(mk("add gb 2 1 rate=0.5 len=8")); !r.OK {
		t.Fatalf("post-expiry add rejected: %s", r)
	}
}
