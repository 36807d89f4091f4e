// Package ctlplane is the crash-safe reservation control plane over the
// crossbar simulator: a long-running simulation that admits, leases,
// resizes, and revokes GB/GL reservations live, applying every accepted
// mutation through core.SSVC.SetVticks re-derivation while journaling it
// for bit-for-bit crash recovery (see journal.go and DESIGN.md "Control
// plane"). The package is wall-clock free by construction — leases
// expire at simulated cycles, never timers — and is enforced so by the
// determinism analyzer (internal/analysis).
package ctlplane

import (
	"fmt"
	"math"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// SimConfig fully determines a control-plane simulation: it is the
// journal header, so two planes built from equal configs (and fed equal
// command sequences) produce identical delivery traces.
type SimConfig struct {
	//ssvc:range Radix 2..4096
	Radix int `json:"radix"`
	//ssvc:range BEBufferFlits 1..1048576
	BEBufferFlits int `json:"beBuf"`
	//ssvc:range GLBufferFlits 1..1048576
	GLBufferFlits int `json:"glBuf"`
	//ssvc:range GBBufferFlits 1..1048576
	GBBufferFlits int `json:"gbBuf"`

	//ssvc:range CounterBits 2..32
	CounterBits int `json:"counterBits"`
	//ssvc:range SigBits 1..31
	SigBits       int                `json:"sigBits"`
	CounterPolicy core.CounterPolicy `json:"counterPolicy"`

	// LMax bounds packet lengths network-wide (the Eq. 1-3 lmax).
	//
	//ssvc:range LMax 1..1048576
	LMax int `json:"lmax"`
	// GBShare and GLShare are the initial per-output budget fractions.
	GBShare float64 `json:"gbShare"`
	GLShare float64 `json:"glShare"`
	//ssvc:range GLBurst 1..1048576
	GLBurst int `json:"glBurst"`

	// Degrade selects PolicyDegrade (true) or PolicyReject (false) as
	// the initial budget-shrink policy; the policy command flips it.
	Degrade bool `json:"degrade"`

	// Seed derives every workload RNG stream (per-reservation, via
	// runner.DeriveSeed).
	Seed uint64 `json:"seed"`

	// SnapEvery is the snapshot cadence in cycles (0 disables).
	// Snapshots are fsync'd verification checkpoints: they bound the
	// simulation progress lost to a crash and let replay cross-check
	// its re-execution, but recovery correctness never depends on them.
	SnapEvery noc.Cycle `json:"snapEvery,omitempty"`

	// Faults optionally installs a fault-injection schedule; fail-stop
	// faults interact with admission through the degrade-vs-reject
	// policy. Part of the journal header: replay re-injects them.
	Faults *faults.Config `json:"faults,omitempty"`
}

// WithDefaults fills unset fields with the repository's standard
// figure-4-shaped geometry.
func (c SimConfig) WithDefaults() SimConfig {
	if c.Radix == 0 {
		c.Radix = 8
	}
	if c.BEBufferFlits == 0 {
		c.BEBufferFlits = 16
	}
	if c.GLBufferFlits == 0 {
		c.GLBufferFlits = 16
	}
	if c.GBBufferFlits == 0 {
		c.GBBufferFlits = 16
	}
	if c.CounterBits == 0 {
		c.CounterBits = 12
	}
	if c.SigBits == 0 {
		c.SigBits = 4
	}
	if c.LMax == 0 {
		c.LMax = 8
	}
	if c.GBShare == 0 {
		c.GBShare = 0.85
	}
	if c.GLShare == 0 {
		c.GLShare = 0.05
	}
	if c.GLBurst == 0 {
		c.GLBurst = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// glVtick is the SSVC cycle budget per GL packet implied by the GL
// share: the leaky bucket refills one lmax-flit packet's worth every
// LMax/GLShare cycles. A denormal GLShare can push the quotient past
// 2^64, so the float-to-fixed crossing is clamped, not cast.
func (c SimConfig) glVtick() noc.VTime {
	if c.GLShare <= 0 {
		return 0
	}
	return noc.VTimeOf(noc.ClampUint64(float64(c.LMax)/c.GLShare+0.5, math.MaxUint64))
}

// Validate reports a descriptive error for malformed configurations;
// WithDefaults output always passes. Like TableConfig.Validate it is
// the runtime enforcement of the struct's //ssvc:range contract and so
// doubles as the taint barrier for journal-decoded headers.
//
//ssvc:barrier
func (c SimConfig) Validate() error {
	if err := c.tableConfig().Validate(); err != nil {
		return err
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"BE buffer", c.BEBufferFlits},
		{"GL buffer", c.GLBufferFlits},
		{"GB buffer", c.GBBufferFlits},
		{"GL burst", c.GLBurst},
	} {
		if f.v < 1 || f.v > 1<<20 {
			return fmt.Errorf("ctlplane: %s %d must be in [1,%d]", f.name, f.v, 1<<20)
		}
	}
	if c.CounterBits < 2 || c.CounterBits > 32 {
		return fmt.Errorf("ctlplane: counter bits %d must be in [2,32]", c.CounterBits)
	}
	if c.SigBits < 1 || c.SigBits >= c.CounterBits {
		return fmt.Errorf("ctlplane: sig bits %d must be in [1,%d]", c.SigBits, c.CounterBits-1)
	}
	return nil
}

// tableConfig derives the admission-table geometry.
func (c SimConfig) tableConfig() TableConfig {
	p := PolicyReject
	if c.Degrade {
		p = PolicyDegrade
	}
	return TableConfig{
		Radix:         c.Radix,
		LMax:          c.LMax,
		GLBufferFlits: c.GLBufferFlits,
		GBShare:       c.GBShare,
		GLShare:       c.GLShare,
		Policy:        p,
	}
}

// PlaneStats counts control-plane outcomes over the run.
type PlaneStats struct {
	Admitted       uint64 // accepted add commands
	RejectedBudget uint64 // gb-budget / gl-budget rejections
	RejectedBound  uint64 // gl-bound rejections
	RejectedOther  uint64 // every other rejection
	Expired        uint64 // reservations reclaimed by lease expiry
	Revoked        uint64 // reservations revoked by policy or fail-stop
}

// flowKey identifies a reservation's flow for delivery dispatch.
type flowKey struct {
	src, dst int
	class    noc.Class
}

// valve wraps a reservation's generator so revocation and lease expiry
// can silence it in place: the fabric's source set has no removal
// operation, so a dead flow stays attached with its generator shut off
// (any packets already queued drain at whatever priority the zeroed
// Vtick leaves them — best effort).
type valve struct {
	gen traffic.Generator
	off bool
}

func (v *valve) Tick(now noc.Cycle, queued int) *noc.Packet {
	if v.off {
		return nil
	}
	return v.gen.Tick(now, queued)
}

// leaseEntry schedules a deterministic expiry.
type leaseEntry struct {
	at noc.Cycle
	id uint64
}

// leaseHeap is a hand-rolled min-heap ordered by (at, id); peeking and
// popping never allocate, keeping the idle cycle loop allocation-free.
type leaseHeap []leaseEntry

func leaseLess(a, b leaseEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

func (h *leaseHeap) push(e leaseEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !leaseLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *leaseHeap) pop() leaseEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && leaseLess(old[l], old[small]) {
			small = l
		}
		if r < n && leaseLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// Plane runs a crossbar simulation under reservation control. Build one
// with New, optionally AttachJournal, mutate with Apply, and drive
// simulated time with Advance. Not safe for concurrent use: the daemon
// funnels network commands into the single goroutine driving the plane.
type Plane struct {
	cfg SimConfig
	sw  *switchsim.Switch
	tab *Table
	seq traffic.Sequence

	jr     *Journal
	seqNo  uint64    // journaled command sequence
	snapAt noc.Cycle // next snapshot cycle (grid multiple of SnapEvery)

	leases   leaseHeap
	valves   map[uint64]*valve
	feedback map[flowKey]*traffic.ClosedLoop
	vtArena  []noc.VTime

	traceHash uint64
	delivered uint64
	onDeliver func(*noc.Packet)

	stats PlaneStats
	err   error
}

// New builds a plane with no journal attached (volatile: replay tests
// and the experiments layer drive it directly).
func New(cfg SimConfig) (*Plane, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tab, err := NewTable(cfg.tableConfig())
	if err != nil {
		return nil, err
	}
	arbCfg := core.Config{
		Radix:       cfg.Radix,
		CounterBits: cfg.CounterBits,
		SigBits:     cfg.SigBits,
		Policy:      cfg.CounterPolicy,
		Vticks:      make([]core.VTime, cfg.Radix),
		EnableGL:    cfg.GLShare > 0,
		GLVtick:     cfg.glVtick(),
		GLBurst:     cfg.GLBurst,
	}
	if err := arbCfg.Validate(); err != nil {
		return nil, fmt.Errorf("ctlplane: %w", err)
	}
	sw, err := switchsim.New(switchsim.Config{
		Radix:         cfg.Radix,
		BEBufferFlits: cfg.BEBufferFlits,
		GLBufferFlits: cfg.GLBufferFlits,
		GBBufferFlits: cfg.GBBufferFlits,
		DynamicFlows:  true,
	}, func(output int) arb.Arbiter {
		c := arbCfg
		c.Vticks = make([]core.VTime, cfg.Radix)
		return core.NewSSVC(c)
	})
	if err != nil {
		return nil, fmt.Errorf("ctlplane: %w", err)
	}
	p := &Plane{
		cfg:       cfg,
		sw:        sw,
		tab:       tab,
		snapAt:    cfg.SnapEvery, // first checkpoint one cadence in
		valves:    make(map[uint64]*valve),
		feedback:  make(map[flowKey]*traffic.ClosedLoop),
		vtArena:   make([]noc.VTime, cfg.Radix),
		traceHash: traceSeed,
	}
	if cfg.Faults != nil {
		if err := sw.SetFaults(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("ctlplane: %w", err)
		}
		sw.OnFailStop(p.failStop)
	}
	sw.OnDeliver(p.deliverHook)
	sw.OnRelease(p.seq.Recycle)
	return p, nil
}

// AttachJournal makes the plane durable. writeHeader is true for a
// fresh journal (a header record is written and fsync'd immediately)
// and false when resuming onto a recovered journal.
func (p *Plane) AttachJournal(jr *Journal, writeHeader bool) error {
	p.jr = jr
	if !writeHeader {
		return nil
	}
	rec := &Record{Kind: KindHeader, Header: &Header{Version: JournalVersion, Sim: p.cfg}}
	if err := jr.Append(rec); err != nil {
		return err
	}
	return jr.Sync()
}

// Config returns the plane's resolved configuration.
func (p *Plane) Config() SimConfig { return p.cfg }

// Now returns the current simulated cycle.
func (p *Plane) Now() noc.Cycle { return p.sw.Now() }

// Err returns the terminal error that froze the plane (a sick engine or
// a failed journal write), or nil.
func (p *Plane) Err() error {
	if p.err != nil {
		return p.err
	}
	return p.sw.Err()
}

// Counters returns the switch's common counter block.
func (p *Plane) Counters() fabric.Counters { return p.sw.Totals() }

// FaultTotals returns the fault injector's counters.
func (p *Plane) FaultTotals() faults.Counters { return p.sw.FaultTotals() }

// Stats returns the control-plane outcome counters.
func (p *Plane) Stats() PlaneStats { return p.stats }

// TraceHash returns the running digest over all delivered packets; two
// runs with equal configs and command sequences must agree on it.
func (p *Plane) TraceHash() uint64 { return p.traceHash }

// Delivered returns the number of delivered packets.
func (p *Plane) Delivered() uint64 { return p.delivered }

// Table exposes the admission table for inspection (read-only).
func (p *Plane) Table() *Table { return p.tab }

// OnDeliver chains an external delivery observer (statistics, trace
// writers) after the plane's own accounting.
func (p *Plane) OnDeliver(fn func(*noc.Packet)) { p.onDeliver = fn }

// FNV-1a constants for the delivery-trace digest.
const (
	traceSeed  = 14695981039346656037
	tracePrime = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * tracePrime }

// deliverHook digests every delivery, feeds closed-loop sources their
// completions, and chains the external observer. It runs inside the
// engine's cycle loop, so it must not allocate.
func (p *Plane) deliverHook(pkt *noc.Packet) {
	p.delivered++
	h := p.traceHash
	h = mix(h, pkt.ID)
	h = mix(h, uint64(pkt.Src)<<32|uint64(pkt.Dst)<<8|uint64(pkt.Class))
	h = mix(h, uint64(pkt.Length))
	h = mix(h, pkt.CreatedAt.Uint())
	h = mix(h, pkt.EnqueuedAt.Uint())
	h = mix(h, pkt.GrantedAt.Uint())
	h = mix(h, pkt.DeliveredAt.Uint())
	h = mix(h, uint64(pkt.Retries))
	p.traceHash = h
	if g, ok := p.feedback[flowKey{pkt.Src, pkt.Dst, pkt.Class}]; ok {
		g.Completed(pkt.DeliveredAt)
	}
	if p.onDeliver != nil {
		p.onDeliver(pkt)
	}
}

// fail freezes the plane on its first terminal error.
func (p *Plane) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// Apply executes one command at the current cycle: admission check,
// durable journal append (fsync before the OK), then live
// materialization onto the switch. Rejections return typed reasons and
// a retry-after hint without touching the running simulation.
//
//ssvc:serial-only
func (p *Plane) Apply(cmd Command) Result {
	now := p.sw.Now()
	if err := p.Err(); err != nil {
		return p.rejected(Result{Cycle: now, Reason: ReasonFrozen, Msg: err.Error()})
	}
	if err := cmd.Validate(); err != nil {
		return p.rejected(Result{Cycle: now, Reason: ReasonBadRequest, Msg: err.Error()})
	}
	switch cmd.Op {
	case OpAdd:
		res, rej := p.tab.Admit(*cmd.Flow, cmd.Lease, now)
		if rej != nil {
			return p.rejected(Result{Cycle: now, Reason: rej.Reason, RetryAfter: rej.RetryAfter, Msg: rej.Msg})
		}
		if r, bad := p.journalCmd(cmd, res.ID, now); bad {
			return r
		}
		p.materializeAdd(res)
		p.stats.Admitted++
		return Result{OK: true, ID: res.ID, Cycle: now}
	case OpRemove:
		res, rej := p.tab.Remove(cmd.ID, now)
		if rej != nil {
			return p.rejected(Result{Cycle: now, Reason: rej.Reason, Msg: rej.Msg})
		}
		if r, bad := p.journalCmd(cmd, res.ID, now); bad {
			return r
		}
		p.detach(res)
		p.refit(res.Req.Dst)
		return Result{OK: true, ID: res.ID, Cycle: now}
	case OpResize:
		res, rej := p.tab.Resize(cmd.ID, cmd.Rate, cmd.Lease, cmd.SetLease, now)
		if rej != nil {
			return p.rejected(Result{Cycle: now, Reason: rej.Reason, RetryAfter: rej.RetryAfter, Msg: rej.Msg})
		}
		if r, bad := p.journalCmd(cmd, res.ID, now); bad {
			return r
		}
		if res.ExpiresAt != 0 {
			p.leases.push(leaseEntry{at: res.ExpiresAt, id: res.ID})
		}
		p.refit(res.Req.Dst)
		return Result{OK: true, ID: res.ID, Cycle: now}
	case OpBudget:
		revoked, rej := p.tab.SetBudget(cmd.Output, cmd.Share, now)
		if rej != nil {
			return p.rejected(Result{Cycle: now, Reason: rej.Reason, Msg: rej.Msg})
		}
		if r, bad := p.journalCmd(cmd, 0, now); bad {
			return r
		}
		for _, res := range revoked {
			p.detach(res)
			p.stats.Revoked++
		}
		p.refit(cmd.Output)
		return Result{OK: true, Cycle: now}
	case OpPolicy:
		pol := PolicyReject
		if cmd.Degrade {
			pol = PolicyDegrade
		}
		revoked := p.tab.SetPolicy(pol)
		if r, bad := p.journalCmd(cmd, 0, now); bad {
			return r
		}
		for _, res := range revoked {
			p.detach(res)
			p.stats.Revoked++
		}
		p.refitAll()
		return Result{OK: true, Cycle: now}
	}
	return p.rejected(Result{Cycle: now, Reason: ReasonBadRequest, Msg: fmt.Sprintf("unknown op %v", cmd.Op)})
}

// rejected counts a rejection by reason class.
func (p *Plane) rejected(r Result) Result {
	switch r.Reason {
	case ReasonGBBudget, ReasonGLBudget:
		p.stats.RejectedBudget++
	case ReasonGLBound:
		p.stats.RejectedBound++
	default:
		p.stats.RejectedOther++
	}
	return r
}

// journalCmd makes an accepted command durable before it is
// acknowledged or materialized. A journal failure freezes the plane:
// the in-memory admission already happened, but the client never gets
// an OK, and a restart recovers the exact pre-command state.
func (p *Plane) journalCmd(cmd Command, id uint64, now noc.Cycle) (Result, bool) {
	if p.jr == nil {
		p.seqNo++
		return Result{}, false
	}
	p.seqNo++
	rec := &Record{Kind: KindCmd, Cmd: &CmdRecord{Seq: p.seqNo, Cycle: now, ID: id, Cmd: cmd}}
	if err := p.jr.Append(rec); err == nil {
		err = p.jr.Sync()
		if err == nil {
			return Result{}, false
		}
		p.fail(err)
	} else {
		p.fail(err)
	}
	return p.rejected(Result{Cycle: now, Reason: ReasonJournal, Msg: p.err.Error()}), true
}

// materializeAdd attaches the admitted reservation's traffic source to
// the switch and re-derives the output's Vticks.
func (p *Plane) materializeAdd(res *Reservation) {
	req := res.Req
	spec := req.Spec()
	seed := runner.DeriveSeed(p.cfg.Seed, int(res.ID&0x7fffffff))
	var gen traffic.Generator
	if req.Users > 0 {
		clCfg := traffic.ClosedLoopConfig{Users: req.Users}
		if req.Class == noc.GuaranteedLatency {
			// GL traffic may never burst past its admitted sigma.
			clCfg.SizeMin, clCfg.SizeMax = 1, req.Burst
		}
		cl := traffic.NewClosedLoop(&p.seq, spec, clCfg, seed)
		p.feedback[flowKey{req.Src, req.Dst, req.Class}] = cl
		gen = cl
	} else if req.Class == noc.GuaranteedBandwidth {
		load := req.Load
		if load == 0 {
			load = req.Rate
		}
		gen = traffic.NewBernoulli(&p.seq, spec, load, seed)
	} else {
		// Rate passed admission, so the quotient is finite, but the
		// clamped crossing keeps the conversion well-defined regardless.
		interval := noc.ClampUint64(float64(req.PacketLen)/req.Rate+0.5, math.MaxUint64)
		if interval == 0 {
			interval = 1
		}
		gen = traffic.NewPeriodic(&p.seq, spec, noc.CycleOf(interval), 0)
	}
	v := &valve{gen: gen}
	p.valves[res.ID] = v
	if err := p.sw.AddFlow(traffic.Flow{Spec: spec, Gen: v}); err != nil {
		p.fail(fmt.Errorf("ctlplane: materialize reservation %d: %w", res.ID, err))
		return
	}
	if res.ExpiresAt != 0 {
		p.leases.push(leaseEntry{at: res.ExpiresAt, id: res.ID})
	}
	if req.Class == noc.GuaranteedBandwidth {
		p.refit(req.Dst)
	}
}

// detach silences a revoked/expired reservation's source. Admission
// forbids duplicate (src,dst,class) reservations, so a present feedback
// entry under this key always belongs to this reservation.
func (p *Plane) detach(res *Reservation) {
	v, ok := p.valves[res.ID]
	if !ok {
		return
	}
	v.off = true
	delete(p.valves, res.ID)
	if _, isCL := v.gen.(*traffic.ClosedLoop); isCL {
		delete(p.feedback, flowKey{res.Req.Src, res.Req.Dst, res.Req.Class})
	}
}

// refit re-derives output o's SSVC Vticks from the granted rates — the
// PR 3 live-reconfiguration machinery, now driven by every accepted
// mutation.
func (p *Plane) refit(o int) {
	ssvc, ok := p.sw.Arbiter(o).(*core.SSVC)
	if !ok {
		p.fail(fmt.Errorf("ctlplane: output %d arbiter is not an SSVC", o))
		return
	}
	if err := ssvc.SetVticks(p.tab.Vticks(o, p.vtArena)); err != nil {
		p.fail(fmt.Errorf("ctlplane: refit output %d: %w", o, err))
	}
}

// refitAll re-derives every output.
func (p *Plane) refitAll() {
	for o := 0; o < p.cfg.Radix; o++ {
		p.refit(o)
	}
}

// failStop is the switch's fail-stop hook: revoke what the dead port
// carried, apply the degrade-vs-reject policy, and re-derive Vticks.
// Fail-stop cycles come from the journaled faults schedule, so replay
// re-derives identical revocations — nothing to journal here.
func (p *Plane) failStop(now noc.Cycle, f faults.FailStop) {
	revoked := p.tab.FailStop(f)
	for _, res := range revoked {
		p.detach(res)
		p.stats.Revoked++
	}
	p.refitAll()
}

// expire reclaims a lease whose cycle has come. Stale heap entries
// (reservation removed or re-leased since) are skipped.
func (p *Plane) expire(e leaseEntry, now noc.Cycle) {
	res := p.tab.Get(e.id)
	if res == nil || res.ExpiresAt != e.at {
		return
	}
	if _, rej := p.tab.Remove(e.id, now); rej != nil {
		return
	}
	p.detach(res)
	p.refit(res.Req.Dst)
	p.stats.Expired++
}

// settle fires every deterministic event due at or before the current
// cycle: lease expirations first, then the snapshot checkpoint. Called
// at every Advance boundary, so the canonical order at a cycle C is
// expiries(C), snapshot(C), then commands applied at C, then the step
// into C — replay reproduces exactly this order.
func (p *Plane) settle() {
	now := p.sw.Now()
	for len(p.leases) > 0 && p.leases[0].at <= now {
		e := p.leases.pop()
		p.expire(e, now)
	}
	if p.cfg.SnapEvery > 0 {
		for p.snapAt <= now {
			p.checkpoint(KindSnap)
			p.snapAt += p.cfg.SnapEvery
		}
	}
}

// checkpoint writes a snapshot (or end) record and fsyncs it.
func (p *Plane) checkpoint(kind string) {
	if p.jr == nil {
		return
	}
	rec := &Record{Kind: kind, Snap: p.snapRecord()}
	if err := p.jr.Append(rec); err != nil {
		p.fail(err)
		return
	}
	if err := p.jr.Sync(); err != nil {
		p.fail(err)
	}
}

// snapRecord captures the current verification state.
func (p *Plane) snapRecord() *SnapRecord {
	return &SnapRecord{
		Cycle:     p.sw.Now(),
		Seq:       p.seqNo,
		Table:     p.tab.State(),
		Counters:  p.sw.Totals(),
		Delivered: p.delivered,
		TraceHash: p.traceHash,
	}
}

// Finish writes the clean-shutdown end record.
//
//ssvc:serial-only
func (p *Plane) Finish() error {
	p.checkpoint(KindEnd)
	return p.Err()
}

// CloseJournal detaches and closes the journal, if any.
func (p *Plane) CloseJournal() error {
	if p.jr == nil {
		return nil
	}
	jr := p.jr
	p.jr = nil
	return jr.Close()
}

// Advance drives the simulation n cycles, firing lease expirations and
// snapshots at their deterministic cycles along the way. With the
// control plane idle (no due events) the whole span runs as a single
// engine call, so an attached-but-idle plane adds no per-cycle work or
// allocation to the hot loop.
//
//ssvc:serial-only
func (p *Plane) Advance(n noc.Cycle) error {
	end := p.sw.Now() + n
	for {
		if err := p.Err(); err != nil {
			return err
		}
		p.settle()
		now := p.sw.Now()
		if now >= end {
			return p.Err()
		}
		next := end
		if len(p.leases) > 0 && p.leases[0].at < next {
			next = p.leases[0].at
		}
		if p.cfg.SnapEvery > 0 && p.snapAt < next {
			next = p.snapAt
		}
		p.sw.Run(noc.SatSub(next, now))
		if p.sw.Now() == now {
			// A frozen engine makes Run a no-op; Err above will report it
			// next iteration, but never spin here.
			return p.Err()
		}
	}
}

// AdvanceTo drives the simulation to an absolute cycle.
//
//ssvc:serial-only
func (p *Plane) AdvanceTo(c noc.Cycle) error {
	now := p.sw.Now()
	if c < now {
		return fmt.Errorf("ctlplane: cannot advance backwards to cycle %d from %d", c.Uint(), now.Uint())
	}
	return p.Advance(noc.SatSub(c, now))
}
