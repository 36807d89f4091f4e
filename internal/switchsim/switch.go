package switchsim

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// inputPort holds one input's buffering and channel state.
type inputPort struct {
	id    int
	be    *fabric.Buffer
	gl    *fabric.Buffer
	gb    []*fabric.Buffer // one virtual output queue per output
	busy  bool             // transmitting a granted packet
	gbRR  int              // round-robin pointer over GB queues
	gbOcc []uint64         // mask of nonempty GB virtual output queues
}

// request is the single (output, class, packet) offer an input makes in a
// cycle.
type request struct {
	dst int
	req arb.Request
}

// currentRequest picks the input's offer for cycle now: the
// guaranteed-latency head first, then the next non-empty guaranteed-
// bandwidth queue in round-robin order, then the best-effort head. A busy
// input offers nothing. A head sitting out a retransmission backoff
// (HoldUntil > now, see internal/faults) blocks its own queue but not
// the input's other queues; HoldUntil is always zero in fault-free runs.
func (in *inputPort) currentRequest(now noc.Cycle) (request, bool) {
	if in.busy {
		return request{}, false
	}
	if p := in.gl.Head(); p != nil && p.HoldUntil <= now {
		return request{dst: p.Dst, req: arb.Request{Input: in.id, Class: noc.GuaranteedLatency, Packet: p}}, true
	}
	// The occupancy mask turns the round-robin scan over all radix
	// virtual output queues into a rotated walk of the nonempty ones
	// (usually a single MaskNextFrom). The head re-check keeps the
	// HoldUntil (retransmission backoff) semantics of the full scan.
	if first := arb.MaskNextFrom(in.gbOcc, in.gbRR); first >= 0 {
		n := len(in.gb)
		for o := first; ; {
			if p := in.gb[o].Head(); p != nil && p.HoldUntil <= now {
				return request{dst: o, req: arb.Request{Input: in.id, Class: noc.GuaranteedBandwidth, Packet: p}}, true
			}
			next := o + 1
			if next == n {
				next = 0
			}
			if o = arb.MaskNextFrom(in.gbOcc, next); o == first {
				break
			}
		}
	}
	if p := in.be.Head(); p != nil && p.HoldUntil <= now {
		return request{dst: p.Dst, req: arb.Request{Input: in.id, Class: noc.BestEffort, Packet: p}}, true
	}
	return request{}, false
}

// bufferFor returns the buffer a packet of the given class/destination
// occupies at this input.
func (in *inputPort) bufferFor(class noc.Class, dst int) *fabric.Buffer {
	switch class {
	case noc.GuaranteedLatency:
		return in.gl
	case noc.GuaranteedBandwidth:
		return in.gb[dst]
	default:
		return in.be
	}
}

// outputPort is one output channel: its arbiter and channel state. The
// obs and pre fields cache the arbiter's optional-interface assertions at
// construction time so the per-cycle loop never pays for a dynamic type
// assertion (admit runs once per input per cycle; see New).
type outputPort struct {
	id  int
	arb arb.Arbiter
	obs arb.ArrivalObserver // non-nil iff arb observes arrivals
	pre arb.Preemptor       // non-nil iff arb can preempt
	tx  *fabric.Transmission
}

// Switch is the cycle-accurate crossbar simulator. Create one with New,
// attach flows with AddFlow and a delivery observer with OnDeliver, then
// drive it with Step or Run. It is not safe for concurrent use.
//
// The embedded fabric.Counters exposes the common utilization counters
// (Injected, Admitted, Delivered, ArbCycles, IdleCycles, DataCycles);
// the embedded fabric.Hooks provides OnDeliver/OnRelease. Switch
// implements fabric.Engine.
type Switch struct {
	fabric.Counters
	fabric.Hooks

	cfg     Config
	inputs  []*inputPort
	outputs []*outputPort
	sources *fabric.Sources // one injection group per input; flow index = AddFlow order
	txPool  fabric.TxPool

	// Event-driven work masks (see DESIGN.md "Event-driven idle
	// skipping"): the cycle loop visits only ports these masks prove have
	// work. They are maintained at every state transition (push, pop,
	// grant, completion) and rebuilt wholesale after the cold fail-stop
	// path.
	pkts      []int    // per-input buffered packet count (all classes)
	inQ       []uint64 // inputs with at least one buffered packet
	inBusy    []uint64 // inputs currently transmitting
	outTx     []uint64 // outputs with an in-flight transmission
	offerDst  []uint64 // scratch: outputs offered at least one request this cycle
	admitSkip []uint64 // inputs whose admission scan is provably barren

	offers  [][]arb.Request // scratch: this cycle's offers per output
	arbReqs []arb.Request   // scratch: requests handed to one arbitration

	now noc.Cycle
	err error // terminal invariant violation; freezes the engine

	faults     *faults.Injector
	onFailStop func(now noc.Cycle, f faults.FailStop)

	// Crossbar-specific counters, alongside the embedded common block.
	Chained     uint64 // packets granted by chaining (no arbitration cycle)
	Preempted   uint64 // in-flight packets aborted by a Preemptor
	WastedFlits uint64 // flits discarded by preemptions
}

// Switch is driven through the shared engine interface by the
// experiments layer.
var _ fabric.Engine = (*Switch)(nil)

// New builds a switch; newArb constructs the arbiter for each output port.
func New(cfg Config, newArb func(output int) arb.Arbiter) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if newArb == nil {
		return nil, fmt.Errorf("switchsim: nil arbiter factory")
	}
	words := arb.MaskWords(cfg.Radix)
	s := &Switch{
		cfg:       cfg,
		inputs:    make([]*inputPort, cfg.Radix),
		outputs:   make([]*outputPort, cfg.Radix),
		sources:   fabric.NewSources(cfg.Radix),
		pkts:      make([]int, cfg.Radix),
		inQ:       make([]uint64, words),
		inBusy:    make([]uint64, words),
		outTx:     make([]uint64, words),
		offerDst:  make([]uint64, words),
		admitSkip: make([]uint64, words),
		offers:    make([][]arb.Request, cfg.Radix),
		arbReqs:   make([]arb.Request, 0, cfg.Radix),
	}
	// An admission skip is invalidated the moment a source queue turns
	// nonempty: a fresh head is the only generation event that can make a
	// barren input admissible again.
	s.sources.SetOnNewHead(func(group int) { arb.MaskClear(s.admitSkip, group) })
	if cfg.DynamicFlows {
		s.sources.DisableEventDriven()
	}
	// Pre-seed the transmission free list (one in-flight packet per
	// output is the maximum) so the steady-state loop never allocates.
	s.txPool.Preload(cfg.Radix)
	for i := range s.inputs {
		in := &inputPort{
			id:    i,
			be:    fabric.NewBuffer(cfg.BEBufferFlits),
			gl:    fabric.NewBuffer(cfg.GLBufferFlits),
			gb:    make([]*fabric.Buffer, cfg.Radix),
			gbOcc: make([]uint64, words),
		}
		for o := range in.gb {
			in.gb[o] = fabric.NewBuffer(cfg.GBBufferFlits)
		}
		s.inputs[i] = in
	}
	for o := range s.outputs {
		a := newArb(o)
		if a == nil {
			return nil, fmt.Errorf("switchsim: arbiter factory returned nil for output %d", o)
		}
		op := &outputPort{id: o, arb: a}
		op.obs, _ = a.(arb.ArrivalObserver)
		op.pre, _ = a.(arb.Preemptor)
		s.outputs[o] = op
	}
	return s, nil
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Now returns the current cycle.
func (s *Switch) Now() noc.Cycle { return s.now }

// Arbiter returns output o's arbiter, for inspection in tests.
func (s *Switch) Arbiter(o int) arb.Arbiter { return s.outputs[o].arb }

// Err returns the terminal error that froze the switch, or nil. After a
// non-nil Err, Step is a no-op and Run returns immediately; counters and
// statistics reflect only the cycles before the failure.
func (s *Switch) Err() error { return s.err }

// fail records the first invariant violation and freezes the engine.
func (s *Switch) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// SetFaults installs a fault-injection schedule. It must be called
// before the first Step; fault-free switches skip every injection check
// through a single nil test per site.
func (s *Switch) SetFaults(cfg faults.Config) error {
	if s.now != 0 {
		return fmt.Errorf("switchsim: SetFaults after cycle 0 (now=%d)", s.now)
	}
	if err := cfg.Validate(s.cfg.Radix, s.cfg.Radix); err != nil {
		return err
	}
	s.faults = faults.New(cfg)
	return nil
}

// OnFailStop registers a callback invoked after the switch has applied a
// fail-stop fault (buffers flushed, in-flight transfer aborted). The
// graceful-degradation policy lives in this hook: the experiments layer
// uses it to re-derive SSVC Vticks so surviving flows absorb the failed
// flows' reservations (core.SSVC.SetVticks).
func (s *Switch) OnFailStop(fn func(now noc.Cycle, f faults.FailStop)) { s.onFailStop = fn }

// FaultTotals returns the injector's fault counters (zero if no schedule
// is installed).
func (s *Switch) FaultTotals() faults.Counters {
	if s.faults == nil {
		return faults.Counters{}
	}
	return s.faults.Totals()
}

// AddFlow attaches a flow and its generator to the switch.
func (s *Switch) AddFlow(f traffic.Flow) error {
	if err := f.Spec.Validate(s.cfg.Radix); err != nil {
		return err
	}
	if f.Gen == nil {
		return fmt.Errorf("switchsim: flow %d->%d has no generator", f.Spec.Src, f.Spec.Dst)
	}
	if s.now != 0 && !s.cfg.DynamicFlows {
		return fmt.Errorf("switchsim: AddFlow at cycle %d requires Config.DynamicFlows (the event-driven source calendar is already sealed)", s.now)
	}
	s.sources.Add(f, f.Spec.Src)
	return nil
}

// SourceQueueLen returns flow index f's current source-queue depth in
// packets, for tests. Flow indices follow AddFlow order.
func (s *Switch) SourceQueueLen(f int) int {
	return s.sources.Flow(f).Queued()
}

// BufferOccupancy returns the flit occupancy of the class buffer at input
// i (for GB, the queue toward output dst).
func (s *Switch) BufferOccupancy(i int, class noc.Class, dst int) int {
	return s.inputs[i].bufferFor(class, dst).Flits()
}

// Step advances the simulation one cycle: fault scheduling, generation,
// admission, output channel processing (data or arbitration), then
// arbiter clock ticks. After a terminal error, Step is a no-op.
//
//ssvc:hotpath
func (s *Switch) Step() {
	if s.err != nil {
		return
	}
	now := s.now
	if s.faults != nil {
		for _, f := range s.faults.BeginCycle(now) {
			s.applyFailStop(now, f)
		}
	}
	s.Injected += s.sources.Generate(now)
	s.admit(now)
	s.serveOutputs(now)
	for _, out := range s.outputs {
		out.arb.Tick(now)
	}
	s.now++
}

// Run advances the simulation by n cycles, stopping early if the engine
// fails sick (see Err).
func (s *Switch) Run(n noc.Cycle) {
	for i := noc.Cycle(0); i < n && s.err == nil; i++ {
		s.Step()
	}
}

// admit moves at most one packet per input from a source queue into the
// corresponding class buffer, rotating across the input's flows for
// fairness (fabric.Sources owns the rotation). Arrival observers
// (original Virtual Clock, WFQ) stamp the packet here.
//
//ssvc:hotpath
func (s *Switch) admit(now noc.Cycle) {
	try := func(p *noc.Packet) bool {
		// Packets from a fail-stopped input or toward a fail-stopped
		// output are doomed: accept them out of the source queue and
		// discard immediately, so no packet bound for a dead port ever
		// occupies buffer space or pins an input's round-robin offer.
		if s.faults != nil && (s.faults.InputDead(p.Src) || s.faults.OutputDead(p.Dst)) {
			s.Dropped++
			s.Drop(p)
			return true
		}
		buf := s.inputs[p.Src].bufferFor(p.Class, p.Dst)
		if !buf.CanAccept(p.Length) {
			return false
		}
		if s.cfg.AdmissionGate != nil && !s.cfg.AdmissionGate(now, p) {
			return false
		}
		p.EnqueuedAt = now
		buf.Push(p)
		s.notePush(s.inputs[p.Src], p.Class, p.Dst)
		s.Admitted++
		if obs := s.outputs[p.Dst].obs; obs != nil {
			obs.PacketArrived(now, p)
		}
		return true
	}
	if s.faults == nil && s.cfg.AdmissionGate == nil {
		// Event-driven path: an input whose last scan admitted nothing is
		// skipped until something that could change the outcome happens —
		// a buffer pop frees space (grant clears the bit) or a source
		// queue turns nonempty (the Sources new-head callback clears it).
		// Fault dooming and admission gates are time-varying, so those
		// configurations always take the full scan below.
		s.SkippedAdmits += uint64(arb.MaskCount(s.admitSkip))
		for w := range s.admitSkip {
			m := ^s.admitSkip[w]
			if w == len(s.admitSkip)-1 {
				m &= lastWordMask(s.cfg.Radix)
			}
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				if s.sources.AdmitGroup(i, try) == nil {
					s.admitSkip[w] |= 1 << (uint(i) & 63)
				}
			}
		}
		return
	}
	for i := range s.inputs {
		s.sources.AdmitGroup(i, try)
	}
}

// lastWordMask returns the valid-bit mask for the final word of an
// n-bit mask slice.
func lastWordMask(n int) uint64 {
	if r := uint(n) & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// notePush updates the work masks for a packet entering an input buffer.
//
//ssvc:hotpath
func (s *Switch) notePush(in *inputPort, class noc.Class, dst int) {
	s.pkts[in.id]++
	arb.MaskSet(s.inQ, in.id)
	if class == noc.GuaranteedBandwidth {
		arb.MaskSet(in.gbOcc, dst)
	}
}

// notePop updates the work masks for a packet leaving an input buffer.
//
//ssvc:hotpath
func (s *Switch) notePop(in *inputPort, class noc.Class, dst int, buf *fabric.Buffer) {
	s.pkts[in.id]--
	if s.pkts[in.id] == 0 {
		arb.MaskClear(s.inQ, in.id)
	}
	if class == noc.GuaranteedBandwidth && buf.Len() == 0 {
		arb.MaskClear(in.gbOcc, dst)
	}
}

// serveOutputs advances every output channel: an output either moves one
// flit of its in-flight packet or spends the cycle arbitrating, never
// both — which is exactly the paper's one-cycle arbitration overhead
// (L-flit packets achieve at most L/(L+1) flits/cycle without chaining).
//
//ssvc:hotpath
func (s *Switch) serveOutputs(now noc.Cycle) {
	// Snapshot each input's offer before any grants this cycle, so an
	// input freed by a completion at one output cannot be granted at
	// another in the same cycle (its channel is still draining the last
	// flit). Offers are bucketed by destination up front: each output
	// then sees only its own requesters, replacing the per-output scan
	// over all offers (O(radix^2) per cycle) with one pass (O(radix)).
	// Only inputs with buffered packets and an idle channel can offer;
	// the masked walk visits exactly those, in the same ascending order
	// as the full scan.
	// offerDst still holds last cycle's offered-output set, and offers[o]
	// is non-empty only where its bit is set — so resetting just those
	// buckets touches ~#offers slice headers instead of all radix.
	for w := range s.offerDst {
		m := s.offerDst[w]
		s.offerDst[w] = 0
		for m != 0 {
			o := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			s.offers[o] = s.offers[o][:0]
		}
	}
	for w := range s.inQ {
		m := s.inQ[w] &^ s.inBusy[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if r, ok := s.inputs[i].currentRequest(now); ok {
				s.offers[r.dst] = append(s.offers[r.dst], r.req)
				arb.MaskSet(s.offerDst, r.dst)
			}
		}
	}

	if s.faults != nil {
		// Fault runs keep the full output walk: dead and stalled channels
		// have their own counter semantics, and correctness there beats
		// the skip win.
		s.serveOutputsAll(now)
		return
	}
	// Event-driven path: visit only outputs with an in-flight packet or
	// at least one offer (ascending, like the full walk). Everything
	// skipped is provably idle and accounted in bulk.
	visited := 0
	for w := range s.offerDst {
		m := s.offerDst[w] | s.outTx[w]
		visited += bits.OnesCount64(m)
		for m != 0 {
			o := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if s.err != nil {
				return
			}
			s.serveOutput(s.outputs[o], now)
		}
	}
	if s.err == nil {
		skipped := uint64(s.cfg.Radix - visited)
		s.IdleCycles += skipped
		s.SkippedOutputs += skipped
	}
}

// serveOutputsAll is the full per-output walk used under fault
// injection.
func (s *Switch) serveOutputsAll(now noc.Cycle) {
	for _, out := range s.outputs {
		if s.err != nil {
			return
		}
		if s.faults.OutputDead(out.id) {
			continue // a dead channel neither moves data nor arbitrates
		}
		if s.faults.StallOutput(now, out.id) {
			continue // stalled: in-flight transfer freezes, no grants
		}
		s.serveOutput(out, now)
	}
}

// serveOutput advances one live output channel: move a flit or spend the
// cycle arbitrating, never both.
//
//ssvc:hotpath
func (s *Switch) serveOutput(out *outputPort, now noc.Cycle) {
	if out.tx != nil {
		if s.cfg.Preemption && out.pre != nil {
			if s.tryPreempt(out, now) {
				return
			}
		}
		s.transfer(out, now)
		return
	}
	// The scratch slice is reused across outputs and cycles;
	// arbiters must not retain it past the Arbitrate call. Inputs
	// granted at an earlier output this cycle are busy again and
	// filtered here.
	reqs := s.arbReqs[:0]
	for _, r := range s.offers[out.id] {
		if !s.inputs[r.Input].busy {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		s.IdleCycles++
		return
	}
	s.ArbCycles++
	w := out.arb.Arbitrate(now, reqs)
	if w < 0 {
		return
	}
	s.grant(out, now, reqs[w], false)
}

// tryPreempt gives a Preemptor arbiter the chance to abort the in-flight
// packet; on preemption the challenger is granted immediately (the
// preemption cycle doubles as its arbitration cycle) and the victim is
// NACKed to the head of its queue for full retransmission.
//
//ssvc:hotpath
func (s *Switch) tryPreempt(out *outputPort, now noc.Cycle) bool {
	pre := out.pre
	reqs := s.arbReqs[:0]
	for _, r := range s.offers[out.id] {
		if !s.inputs[r.Input].busy {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return false
	}
	tx := out.tx
	inflight := arb.Request{Input: tx.Input, Class: tx.Pkt.Class, Packet: tx.Pkt}
	w := pre.ShouldPreempt(now, inflight, reqs)
	if w < 0 {
		return false
	}
	s.Preempted++
	s.WastedFlits += uint64(tx.Pkt.Length - tx.Remaining)
	victim := s.inputs[tx.Input]
	victim.busy = false
	arb.MaskClear(s.inBusy, victim.id)
	victim.bufferFor(tx.Pkt.Class, out.id).PushFront(tx.Pkt)
	s.notePush(victim, tx.Pkt.Class, out.id)
	out.tx = nil
	arb.MaskClear(s.outTx, out.id)
	s.txPool.Put(tx)
	s.grant(out, now, reqs[w], false)
	return true
}

// transfer moves one flit of the output's in-flight packet, completing the
// packet (and possibly chaining a successor) when the last flit leaves.
// With fault injection enabled, the receiver's modeled CRC check runs on
// the completed packet: a corrupted packet is NACKed back to the head of
// its input queue for backoff-and-retry, or dropped once its retry
// budget is spent. Either way the channel cycles it consumed are wasted.
//
//ssvc:hotpath
func (s *Switch) transfer(out *outputPort, now noc.Cycle) {
	s.DataCycles++
	tx := out.tx
	tx.Remaining--
	if tx.Remaining > 0 {
		return
	}
	pkt := tx.Pkt
	in := s.inputs[tx.Input]
	in.busy = false
	arb.MaskClear(s.inBusy, in.id)
	out.tx = nil
	arb.MaskClear(s.outTx, out.id)
	s.txPool.Put(tx)
	if s.faults != nil && s.faults.CorruptArrival(pkt) {
		s.WastedFlits += uint64(pkt.Length)
		if s.faults.Retry(now, pkt) {
			in.bufferFor(pkt.Class, out.id).PushFront(pkt)
			s.notePush(in, pkt.Class, out.id)
		} else {
			s.Dropped++
			s.Drop(pkt)
		}
		return // the NACK turnaround consumes the chaining opportunity
	}
	pkt.DeliveredAt = now
	s.Delivered++
	s.Deliver(pkt)
	if s.cfg.PacketChaining {
		s.tryChain(out, now)
	}
}

// tryChain performs the overlapped arbitration of packet chaining [10]:
// the arbitration for the channel's next packet happens under its last
// data flit, so the winner starts immediately and the dedicated
// arbitration cycle is elided. All requesters compete through the normal
// arbiter, so class priority, reservations, and tie-breaking are exactly
// as in a dedicated cycle — chaining buys throughput, never ordering.
//
//ssvc:hotpath
func (s *Switch) tryChain(out *outputPort, now noc.Cycle) {
	reqs := s.arbReqs[:0]
	for w := range s.inQ {
		m := s.inQ[w] &^ s.inBusy[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if r, ok := s.inputs[i].currentRequest(now); ok && r.dst == out.id {
				reqs = append(reqs, r.req)
			}
		}
	}
	if len(reqs) == 0 {
		return
	}
	w := out.arb.Arbitrate(now, reqs)
	if w < 0 {
		return
	}
	s.Chained++
	s.grant(out, now, reqs[w], true)
}

// grant commits a packet to the output channel. Data moves starting next
// cycle; chained grants reuse the current data cycle's tail, preserving
// back-to-back transmission.
//
//ssvc:hotpath
func (s *Switch) grant(out *outputPort, now noc.Cycle, req arb.Request, chained bool) {
	in := s.inputs[req.Input]
	buf := in.bufferFor(req.Class, out.id)
	p := buf.Pop()
	if p != req.Packet {
		//ssvc:coldpath the engine freezes sick here, so this error path may allocate
		// A grant must match the queue head the offer was built from. A
		// mismatch means simulator state is corrupt; freeze the engine
		// with a descriptive error instead of killing the whole sweep
		// pool (the experiments layer surfaces Err per sweep point).
		head := "empty queue"
		if p != nil {
			head = fmt.Sprintf("packet %d", p.ID)
		}
		s.fail(fmt.Errorf("switchsim: cycle %d: output %d granted packet %d but input %d head is %s",
			now, out.id, req.Packet.ID, req.Input, head))
		return
	}
	p.GrantedAt = now
	in.busy = true
	arb.MaskSet(s.inBusy, in.id)
	s.notePop(in, req.Class, out.id, buf)
	// Freed buffer space can unblock a previously barren admission scan.
	arb.MaskClear(s.admitSkip, in.id)
	if req.Class == noc.GuaranteedBandwidth {
		in.gbRR = (out.id + 1) % s.cfg.Radix
	}
	out.tx = s.txPool.Get(p, req.Input)
	arb.MaskSet(s.outTx, out.id)
	// The arbiter's bandwidth accounting covers chained packets too:
	// every transmitted packet advances the flow's virtual clock.
	out.arb.Granted(now, req)
}

// dropPkt counts and releases a packet discarded by a fault.
func (s *Switch) dropPkt(p *noc.Packet) {
	s.Dropped++
	s.Drop(p)
}

// applyFailStop flushes all state referencing a port that just died:
// queued packets toward a dead output (or at a dead input) are dropped,
// and an in-flight transfer touching the dead port is aborted with its
// transmitted flits wasted. Admission dooming (see admit) guarantees no
// new packet for the dead port enters a buffer afterwards, so a
// surviving input's round-robin offer can never pin on a dead output.
// This is a cold path; its closures may allocate.
func (s *Switch) applyFailStop(now noc.Cycle, f faults.FailStop) {
	all := func(*noc.Packet) bool { return true }
	if f.Input {
		in := s.inputs[f.Port]
		in.be.DropWhere(all, s.dropPkt)
		in.gl.DropWhere(all, s.dropPkt)
		for _, q := range in.gb {
			q.DropWhere(all, s.dropPkt)
		}
		for _, out := range s.outputs {
			if out.tx != nil && out.tx.Input == f.Port {
				s.abortTx(out)
			}
		}
		in.busy = false
	} else {
		toDead := func(p *noc.Packet) bool { return p.Dst == f.Port }
		for _, in := range s.inputs {
			in.be.DropWhere(toDead, s.dropPkt)
			in.gl.DropWhere(toDead, s.dropPkt)
			in.gb[f.Port].DropWhere(all, s.dropPkt)
		}
		if out := s.outputs[f.Port]; out.tx != nil {
			s.abortTx(out)
		}
	}
	if s.onFailStop != nil {
		s.onFailStop(now, f)
	}
	s.recomputeMasks()
}

// recomputeMasks rebuilds every work mask from first principles. Fault
// handling flushes buffers and aborts transfers wholesale; re-deriving
// the masks afterwards is simpler and safer than patching them through
// each drop. Cold path.
func (s *Switch) recomputeMasks() {
	arb.MaskZero(s.inQ)
	arb.MaskZero(s.inBusy)
	arb.MaskZero(s.outTx)
	arb.MaskZero(s.admitSkip)
	for _, in := range s.inputs {
		n := in.gl.Len() + in.be.Len()
		arb.MaskZero(in.gbOcc)
		for o, q := range in.gb {
			if q.Len() > 0 {
				arb.MaskSet(in.gbOcc, o)
			}
			n += q.Len()
		}
		s.pkts[in.id] = n
		if n > 0 {
			arb.MaskSet(s.inQ, in.id)
		}
		if in.busy {
			arb.MaskSet(s.inBusy, in.id)
		}
	}
	for _, out := range s.outputs {
		if out.tx != nil {
			arb.MaskSet(s.outTx, out.id)
		}
	}
}

// abortTx kills an output's in-flight transfer, wasting the flits already
// moved and dropping the packet (its source or destination is dead).
func (s *Switch) abortTx(out *outputPort) {
	tx := out.tx
	pkt := tx.Pkt
	s.WastedFlits += uint64(pkt.Length - tx.Remaining)
	s.inputs[tx.Input].busy = false
	out.tx = nil
	s.txPool.Put(tx)
	s.dropPkt(pkt)
}
