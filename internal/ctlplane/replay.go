package ctlplane

import (
	"fmt"
	"os"
	"reflect"

	"swizzleqos/internal/noc"
)

// ReplayOptions parameterize journal replay. OnDeliver observes every
// re-executed delivery, e.g. to write a trace file.
type ReplayOptions struct {
	OnDeliver func(*noc.Packet)
}

// Rebuild re-executes a journal from genesis: the header record
// rebuilds the identical simulation, every command re-applies at its
// stamped cycle, and every snapshot along the way is verified against
// the re-executed state. Any divergence — a command that no longer
// admits, a different assigned id, a snapshot that disagrees on the
// trace hash, counters, or admission table — is a hard error naming the
// mismatch; recovery is bit-for-bit or it is refused.
//
// Rebuild is a taint barrier: every journal-decoded value either passes
// SimConfig.Validate (the header) or re-enters admission through Apply
// (the commands), so the returned plane holds only validated state.
//
//ssvc:barrier
func Rebuild(recs []Record, ro ReplayOptions) (*Plane, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("ctlplane: empty journal")
	}
	hdr := recs[0]
	if hdr.Kind != KindHeader || hdr.Header == nil {
		return nil, fmt.Errorf("ctlplane: journal does not start with a header record (got %q)", hdr.Kind)
	}
	if hdr.Header.Version != JournalVersion {
		return nil, fmt.Errorf("ctlplane: journal format version %d, this build reads %d", hdr.Header.Version, JournalVersion)
	}
	p, err := New(hdr.Header.Sim)
	if err != nil {
		return nil, err
	}
	if ro.OnDeliver != nil {
		p.OnDeliver(ro.OnDeliver)
	}
	for i, rec := range recs[1:] {
		switch rec.Kind {
		case KindCmd:
			c := rec.Cmd
			if c == nil {
				return nil, fmt.Errorf("ctlplane: journal record %d: cmd record without a command", i+1)
			}
			if c.Cycle < p.Now() {
				return nil, fmt.Errorf("ctlplane: journal record %d: command cycle %d before current cycle %d (journal out of order)",
					i+1, c.Cycle.Uint(), p.Now().Uint())
			}
			if err := p.AdvanceTo(c.Cycle); err != nil {
				return nil, fmt.Errorf("ctlplane: replay to cycle %d: %w", c.Cycle.Uint(), err)
			}
			r := p.Apply(c.Cmd)
			if !r.OK {
				return nil, fmt.Errorf("ctlplane: replay divergence at cycle %d seq %d: journaled %s command re-applied as %s",
					c.Cycle.Uint(), c.Seq, c.Cmd.Op, r.String())
			}
			if c.ID != 0 && r.ID != c.ID {
				return nil, fmt.Errorf("ctlplane: replay divergence at cycle %d seq %d: journaled reservation id %d, re-admission assigned %d",
					c.Cycle.Uint(), c.Seq, c.ID, r.ID)
			}
			if p.seqNo != c.Seq {
				return nil, fmt.Errorf("ctlplane: replay divergence at cycle %d: journaled seq %d, re-execution at seq %d (missing records?)",
					c.Cycle.Uint(), c.Seq, p.seqNo)
			}
		case KindSnap, KindEnd:
			s := rec.Snap
			if s == nil {
				return nil, fmt.Errorf("ctlplane: journal record %d: snapshot record without a snapshot", i+1)
			}
			if err := p.AdvanceTo(s.Cycle); err != nil {
				return nil, fmt.Errorf("ctlplane: replay to cycle %d: %w", s.Cycle.Uint(), err)
			}
			if err := p.verifySnap(s); err != nil {
				return nil, err
			}
		case KindHeader:
			return nil, fmt.Errorf("ctlplane: journal record %d: duplicate header", i+1)
		default:
			return nil, fmt.Errorf("ctlplane: journal record %d: unknown kind %q", i+1, rec.Kind)
		}
	}
	return p, nil
}

// verifySnap cross-checks a journaled snapshot against the re-executed
// state.
func (p *Plane) verifySnap(s *SnapRecord) error {
	if p.seqNo != s.Seq {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: seq %d journaled, %d re-executed", s.Cycle.Uint(), s.Seq, p.seqNo)
	}
	if p.traceHash != s.TraceHash {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: trace hash %016x journaled, %016x re-executed",
			s.Cycle.Uint(), s.TraceHash, p.traceHash)
	}
	if p.delivered != s.Delivered {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: %d deliveries journaled, %d re-executed",
			s.Cycle.Uint(), s.Delivered, p.delivered)
	}
	if got := p.sw.Totals(); !reflect.DeepEqual(got, s.Counters) {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: counters journaled %+v, re-executed %+v",
			s.Cycle.Uint(), s.Counters, got)
	}
	if got := p.tab.State(); !tableStateEqual(got, s.Table) {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: admission table journaled %+v, re-executed %+v",
			s.Cycle.Uint(), s.Table, got)
	}
	return nil
}

// tableStateEqual compares admission states, treating nil and empty
// slices as equal (JSON round-trips empty slices to nil).
func tableStateEqual(a, b TableState) bool {
	if a.NextID != b.NextID || a.Policy != b.Policy {
		return false
	}
	if !uintsEqual(a.GBBudget, b.GBBudget) {
		return false
	}
	if !intsEqual(a.InDown, b.InDown) || !intsEqual(a.OutDown, b.OutDown) {
		return false
	}
	if len(a.Reservations) != len(b.Reservations) {
		return false
	}
	for i := range a.Reservations {
		if !reflect.DeepEqual(a.Reservations[i], b.Reservations[i]) {
			return false
		}
	}
	return true
}

func uintsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// terminateTail appends the record terminator when a recovered
// journal's last byte is not '\n' — the crash landed between the final
// record's bytes and its newline (DecodeJournal's "last record intact"
// case). Without it, the first post-recovery Append would write its
// frame onto the same line, merging two records into one unparseable
// line and breaking the next recovery.
func terminateTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.WriteAt([]byte{'\n'}, st.Size()); err != nil {
		return err
	}
	return f.Sync()
}

// RecoverFile recovers a plane from a journal file: decode (tolerating
// a torn tail), re-execute with verification, truncate any torn bytes,
// and re-attach the journal for appending. A missing or empty journal
// returns (nil, "", nil): the caller starts fresh. The returned warning
// describes a discarded torn tail, if any.
func RecoverFile(path string, ro ReplayOptions) (*Plane, string, error) {
	recs, validEnd, warn, err := ReadJournal(path)
	if err != nil {
		return nil, "", err
	}
	if len(recs) == 0 {
		return nil, warn, nil
	}
	p, err := Rebuild(recs, ro)
	if err != nil {
		return nil, warn, err
	}
	if warn != "" {
		if err := os.Truncate(path, validEnd); err != nil {
			return nil, warn, fmt.Errorf("ctlplane: truncate torn journal tail: %w", err)
		}
		if err := terminateTail(path); err != nil {
			return nil, warn, fmt.Errorf("ctlplane: terminate recovered journal tail: %w", err)
		}
	}
	jr, err := AppendJournal(path)
	if err != nil {
		return nil, warn, err
	}
	if err := p.AttachJournal(jr, false); err != nil {
		return nil, warn, err
	}
	return p, warn, nil
}
