// Package mesh is a cycle-accurate 2D-mesh network-on-chip used as the
// multi-hop counterpoint to the paper's single-stage switch.
//
// The paper's motivation (§1-§2.1): implementing differentiated bandwidth
// and latency services in a multi-hop NoC is hard — per-flow state would
// be needed at every router — whereas a single high-radix crossbar can
// hold all QoS state at its crosspoints. This package provides the
// honest baseline for that argument: a mesh of input-buffered routers
// with dimension-order (XY) routing, whole-packet (virtual cut-through)
// switching with downstream buffer reservation, a one-cycle arbitration
// overhead per hop (matching the switch model), and a pluggable per-port
// arbiter. Router arbiters see input *ports*, not flows, so even a
// weighted scheme cannot enforce an individual flow's end-to-end
// reservation once flows merge — which is exactly what the motivation
// experiment demonstrates.
package mesh

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// Port indexes a router's five ports.
type Port int

// Router ports: the local terminal plus the four mesh directions.
const (
	Local Port = iota
	North      // -y
	South      // +y
	East       // +x
	West       // -x
	numPorts
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// Config describes the mesh geometry and its routers.
type Config struct {
	// Width and Height give a Width x Height mesh; node IDs are
	// y*Width + x, used as packet sources and destinations.
	Width, Height int
	// BufferFlits is each router input port's buffer capacity.
	BufferFlits int
	// NewArbiter builds one arbiter per router output port over the
	// five input ports; nil defaults to LRG. Every call must return an
	// independent instance.
	NewArbiter func() arb.Arbiter
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Width < 1 || c.Height < 1 || c.Width*c.Height < 2 {
		return fmt.Errorf("mesh: %dx%d is not a mesh", c.Width, c.Height)
	}
	if c.BufferFlits < 1 {
		return fmt.Errorf("mesh: buffer capacity %d must be positive", c.BufferFlits)
	}
	return nil
}

// router is one mesh node. Input buffers carry the downstream reservation
// accounting of virtual cut-through: a granted packet's space is reserved
// at its next hop before it starts moving, making the transfer safe.
type router struct {
	id   int
	x, y int
	in   [numPorts]*fabric.Buffer
	out  [numPorts]*fabric.Transmission
	arbs [numPorts]arb.Arbiter
	// inBusy marks input ports whose buffer read port is occupied by an
	// in-flight transfer.
	inBusy [numPorts]bool
	// cooldown marks outputs that moved their final flit this cycle;
	// they spend the next cycle arbitrating, giving the same one-cycle
	// arbitration overhead per hop as the single-stage switch model.
	cooldown [numPorts]bool
}

// addWork records one more work item (buffered packet, transmission, or
// cooldown) at router r.
//
//ssvc:hotpath
func (m *Mesh) addWork(r *router) {
	if m.work[r.id]++; m.work[r.id] == 1 {
		arb.MaskSet(m.active, r.id)
	}
}

// subWork records a completed work item at router r.
//
//ssvc:hotpath
func (m *Mesh) subWork(r *router) {
	if m.work[r.id]--; m.work[r.id] == 0 {
		arb.MaskClear(m.active, r.id)
	}
}

// Mesh is the simulator. Drive it with Step/Run; observe deliveries with
// OnDeliver (and recycle with OnRelease). Not safe for concurrent use.
//
// The embedded fabric.Counters exposes the common utilization counters;
// Mesh implements fabric.Engine.
type Mesh struct {
	fabric.Counters
	fabric.Hooks

	cfg     Config
	routers []*router
	sources *fabric.Sources // one injection group per flow, in AddFlow order
	txPool  fabric.TxPool
	now     noc.Cycle
	err     error // terminal invariant violation; freezes the engine

	faults *faults.Injector

	// Event-driven work tracking (see DESIGN.md "Event-driven idle
	// skipping"): work[id] counts router id's buffered packets, in-flight
	// transmissions, and pending cooldowns; active masks the routers where
	// it is nonzero.
	work   []int
	active []uint64

	arbReqs []arb.Request // scratch: requests handed to one arbitration
}

// Mesh is driven through the shared engine interface by the experiments
// layer.
var _ fabric.Engine = (*Mesh)(nil)

// New builds a mesh.
func New(cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	newArb := cfg.NewArbiter
	if newArb == nil {
		newArb = func() arb.Arbiter { return arb.NewLRG(int(numPorts)) }
	}
	nodes := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:     cfg,
		sources: fabric.NewSources(0),
		work:    make([]int, nodes),
		active:  make([]uint64, arb.MaskWords(nodes)),
		arbReqs: make([]arb.Request, 0, numPorts),
	}
	m.txPool.Preload(nodes * int(numPorts))
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			id := y*cfg.Width + x
			r := &router{id: id, x: x, y: y}
			for p := Port(0); p < numPorts; p++ {
				r.in[p] = fabric.NewBuffer(cfg.BufferFlits)
				r.arbs[p] = newArb()
			}
			m.routers = append(m.routers, r)
		}
	}
	return m, nil
}

// Nodes returns the number of terminals (Width * Height).
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Err returns the terminal error that froze the mesh, or nil.
func (m *Mesh) Err() error { return m.err }

// fail records the first invariant violation and freezes the engine.
func (m *Mesh) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// SetFaults installs a fault-injection schedule; call before the first
// Step. Port addressing in the schedule: an Input fail-stop port is a
// node ID (the node's injection dies and its locally queued packets are
// flushed); stall and output fail-stop ports are flattened router link
// ids, router*5 + direction (see Port constants). A packet whose XY
// route reaches a dead link is discarded at that router — the mesh has
// no per-flow state to re-derive, so there is no degraded-mode
// re-reservation here (that asymmetry versus the crossbar is the
// paper's architectural point).
func (m *Mesh) SetFaults(cfg faults.Config) error {
	if m.now != 0 {
		return fmt.Errorf("mesh: SetFaults after cycle 0 (now=%d)", m.now)
	}
	if err := cfg.Validate(m.Nodes(), len(m.routers)*int(numPorts)); err != nil {
		return err
	}
	m.faults = faults.New(cfg)
	return nil
}

// FaultTotals returns the injector's fault counters (zero if no schedule
// is installed).
func (m *Mesh) FaultTotals() faults.Counters {
	if m.faults == nil {
		return faults.Counters{}
	}
	return m.faults.Totals()
}

// flatPort flattens a router output port to the schedule's id space.
func (m *Mesh) flatPort(r *router, p Port) int {
	return (r.y*m.cfg.Width+r.x)*int(numPorts) + int(p)
}

// Now returns the current cycle.
func (m *Mesh) Now() noc.Cycle { return m.now }

// Diameter returns the mesh diameter in hops.
func (m *Mesh) Diameter() int { return m.cfg.Width + m.cfg.Height - 2 }

// HopCount returns the XY route length between two nodes.
func (m *Mesh) HopCount(src, dst int) int {
	sx, sy := src%m.cfg.Width, src/m.cfg.Width
	dx, dy := dst%m.cfg.Width, dst/m.cfg.Width
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// AddFlow attaches a flow; Src and Dst are node IDs. Every flow gets its
// own injection group: the mesh's local ports admit one packet per flow
// per cycle, not one per node.
func (m *Mesh) AddFlow(f traffic.Flow) error {
	if f.Spec.Src < 0 || f.Spec.Src >= m.Nodes() || f.Spec.Dst < 0 || f.Spec.Dst >= m.Nodes() {
		return fmt.Errorf("mesh: flow %d->%d outside a %d-node mesh", f.Spec.Src, f.Spec.Dst, m.Nodes())
	}
	if f.Spec.Src == f.Spec.Dst {
		return fmt.Errorf("mesh: flow %d->%d routes to itself", f.Spec.Src, f.Spec.Dst)
	}
	if f.Gen == nil {
		return fmt.Errorf("mesh: flow %d->%d has no generator", f.Spec.Src, f.Spec.Dst)
	}
	m.sources.AddOwnGroup(f)
	return nil
}

// routeDir returns the output port a packet takes at router r under
// dimension-order routing: X first, then Y, then eject.
func (m *Mesh) routeDir(r *router, dst int) Port {
	dx, dy := dst%m.cfg.Width, dst/m.cfg.Width
	switch {
	case dx > r.x:
		return East
	case dx < r.x:
		return West
	case dy > r.y:
		return South
	case dy < r.y:
		return North
	default:
		return Local
	}
}

// neighbor returns the router reached through out, or nil at the edge.
func (m *Mesh) neighbor(r *router, out Port) *router {
	x, y := r.x, r.y
	switch out {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	default:
		return nil
	}
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		return nil
	}
	return m.routers[y*m.cfg.Width+x]
}

// entryPort returns the port through which traffic from `out` of the
// upstream router enters the neighbor.
func entryPort(out Port) Port {
	switch out {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// Step advances one cycle: fault scheduling, injection, in-flight
// transfers, then per-output arbitration at every router. After a
// terminal error, Step is a no-op.
//
//ssvc:hotpath
func (m *Mesh) Step() {
	if m.err != nil {
		return
	}
	now := m.now
	if m.faults != nil {
		if fs := m.faults.BeginCycle(now); len(fs) > 0 {
			for _, f := range fs {
				m.applyFailStop(f)
			}
			m.recomputeActive()
		}
	}
	m.inject(now)
	m.transfer(now)
	m.arbitrate(now)
	for _, r := range m.routers {
		for p := Port(0); p < numPorts; p++ {
			r.arbs[p].Tick(now)
		}
	}
	m.now++
}

// Run advances n cycles, stopping early if the engine fails sick.
func (m *Mesh) Run(n noc.Cycle) {
	for i := noc.Cycle(0); i < n && m.err == nil; i++ {
		m.Step()
	}
}

//ssvc:hotpath
func (m *Mesh) inject(now noc.Cycle) {
	m.Injected += m.sources.Generate(now)
	try := func(p *noc.Packet) bool {
		// A fail-stopped node generates into a dead local port: accept
		// and discard so the source queue cannot grow without bound.
		if m.faults != nil && m.faults.InputDead(p.Src) {
			m.dropPkt(p)
			return true
		}
		rt := m.routers[p.Src]
		if !rt.in[Local].Admit(p) {
			return false
		}
		p.EnqueuedAt = now
		m.Admitted++
		m.addWork(rt)
		return true
	}
	if m.faults != nil {
		for g := 0; g < m.sources.Groups(); g++ {
			m.sources.AdmitGroup(g, try)
		}
		return
	}
	// Fault-free fast path: an empty-queue group cannot admit, so only
	// scan groups the sources layer marked nonempty. Pops clear bits in
	// place; the per-word snapshot keeps this cycle's scan set fixed.
	visited := 0
	for w, mm := range m.sources.NonEmptyMask() {
		for mm != 0 {
			g := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			m.sources.AdmitGroup(g, try)
			visited++
		}
	}
	m.SkippedAdmits += uint64(m.sources.Groups() - visited)
}

// dropPkt counts and releases a packet discarded by a fault.
func (m *Mesh) dropPkt(p *noc.Packet) {
	m.Dropped++
	m.Drop(p)
}

// recomputeActive rebuilds the work counts and activity masks from first
// principles after fault handling has flushed state wholesale. Cold path.
func (m *Mesh) recomputeActive() {
	arb.MaskZero(m.active)
	for _, r := range m.routers {
		n := 0
		for p := Port(0); p < numPorts; p++ {
			n += r.in[p].Len()
			if r.out[p] != nil {
				n++
			}
			if r.cooldown[p] {
				n++
			}
		}
		m.work[r.id] = n
		if n > 0 {
			arb.MaskSet(m.active, r.id)
		}
	}
}

// applyFailStop flushes state referencing a port that just died. Input
// fail-stops address node IDs: local injection queues are flushed and
// future injections are doomed at admission. Output fail-stops address
// flattened link ids: an in-flight transfer on the link is aborted (its
// downstream reservation released) and packets routing onto the dead
// link are discarded lazily when they reach the router's head.
func (m *Mesh) applyFailStop(f faults.FailStop) {
	if f.Input {
		r := m.routers[f.Port]
		r.in[Local].DropWhere(func(*noc.Packet) bool { return true }, m.dropPkt)
		for out := Port(0); out < numPorts; out++ {
			if tx := r.out[out]; tx != nil && Port(tx.Input) == Local {
				m.abortTx(r, out)
			}
		}
		r.inBusy[Local] = false
		return
	}
	r := m.routers[f.Port/int(numPorts)]
	out := Port(f.Port % int(numPorts))
	if r.out[out] != nil {
		m.abortTx(r, out)
	}
}

// abortTx kills an in-flight transfer on one router output, releasing
// its downstream reservation and dropping the packet.
func (m *Mesh) abortTx(r *router, out Port) {
	tx := r.out[out]
	pkt := tx.Pkt
	r.inBusy[tx.Input] = false
	r.out[out] = nil
	m.txPool.Put(tx)
	if out != Local {
		m.neighbor(r, out).in[entryPort(out)].Unreserve(pkt.Length)
	}
	m.dropPkt(pkt)
}

// transfer advances every busy output channel one flit; completions move
// the packet to the reserved downstream buffer or deliver it locally.
// With fault injection enabled, a stalled link freezes its in-flight
// transfer, and a completed hop runs the receiver's modeled CRC check:
// a corrupted packet is NACKed back to the head of the upstream input
// buffer (its downstream reservation released) or dropped once its
// retry budget is spent.
//
//ssvc:hotpath
func (m *Mesh) transfer(now noc.Cycle) {
	if m.faults != nil {
		for _, r := range m.routers {
			m.transferRouter(r, now)
		}
		return
	}
	// Fault-free fast path: a transfer only advances a non-nil output
	// channel, and every in-flight transmission is a counted work item, so
	// inactive routers are provably no-ops. Completions committing into a
	// downstream router may set its bit mid-walk; the full walk would find
	// that router transfer-idle too (a committed packet is not a
	// transmission), so visiting or skipping it is equivalent.
	for w, mm := range m.active {
		for mm != 0 {
			id := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			m.transferRouter(m.routers[id], now)
		}
	}
}

// transferRouter advances router r's busy output channels one flit.
//
//ssvc:hotpath
func (m *Mesh) transferRouter(r *router, now noc.Cycle) {
	for out := Port(0); out < numPorts; out++ {
		tx := r.out[out]
		if tx == nil {
			continue
		}
		if m.faults != nil && m.faults.StallOutput(now, m.flatPort(r, out)) {
			continue
		}
		m.DataCycles++
		tx.Remaining--
		if tx.Remaining > 0 {
			continue
		}
		// Channel teardown swaps the transmission work item for the
		// cooldown one, so r's work count is unchanged here.
		pkt, from := tx.Pkt, Port(tx.Input)
		r.inBusy[from] = false
		r.out[out] = nil
		r.cooldown[out] = true
		m.txPool.Put(tx)
		if m.faults != nil && m.faults.CorruptArrival(pkt) {
			if out != Local {
				m.neighbor(r, out).in[entryPort(out)].Unreserve(pkt.Length)
			}
			if m.faults.Retry(now, pkt) {
				r.in[from].PushFront(pkt)
				m.addWork(r)
			} else {
				m.dropPkt(pkt)
			}
			continue
		}
		if out == Local {
			pkt.DeliveredAt = now
			m.Delivered++
			m.Deliver(pkt)
			continue
		}
		next := m.neighbor(r, out)
		next.in[entryPort(out)].Commit(pkt)
		m.addWork(next)
	}
}

// arbitrate grants idle outputs. An output whose transmission completed
// this cycle is cooling down and spends the cycle on arbitration only, so
// every hop pays the one-cycle arbitration overhead of the switch model
// (L-flit packets occupy a link for L+1 cycles).
//
//ssvc:hotpath
func (m *Mesh) arbitrate(now noc.Cycle) {
	if m.faults != nil {
		for _, r := range m.routers {
			if m.err != nil {
				return
			}
			m.arbitrateRouter(r, now)
		}
		return
	}
	// Fault-free fast path: an inactive router has no head to grant, no
	// cooldown to clear, and no busy output — the full walk would count
	// all its outputs idle and move on. Bulk-account those outputs as
	// skipped idle cycles instead of touching them. Fault-free
	// arbitration never pushes packets, so no bit sets mid-walk; clears
	// only affect the router being visited.
	visited := 0
	for w, mm := range m.active {
		for mm != 0 {
			id := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			if m.err != nil {
				return
			}
			m.arbitrateRouter(m.routers[id], now)
			visited++
		}
	}
	if m.err == nil {
		skipped := uint64(len(m.routers)-visited) * uint64(numPorts)
		m.IdleCycles += skipped
		m.SkippedOutputs += skipped
	}
}

// arbitrateRouter grants router r's idle outputs.
//
//ssvc:hotpath
func (m *Mesh) arbitrateRouter(r *router, now noc.Cycle) {
	// Snapshot head packets once per router so one input cannot be
	// granted by two outputs in the same cycle, caching each head's
	// route (routeDir is pure, so once per cycle suffices). A head
	// backing off a retransmission (HoldUntil > now) sits this cycle
	// out; a head routing onto a fail-stopped link is discarded here,
	// which keeps upstream buffers draining toward the fault point.
	var heads [numPorts]*noc.Packet
	var routes [numPorts]Port
	for in := Port(0); in < numPorts; in++ {
		if r.inBusy[in] {
			continue
		}
		p := r.in[in].Head()
		if p == nil || p.HoldUntil > now {
			continue
		}
		route := m.routeDir(r, p.Dst)
		if m.faults != nil && m.faults.OutputDead(m.flatPort(r, route)) {
			m.dropPkt(r.in[in].Pop())
			m.subWork(r)
			continue
		}
		heads[in] = p
		routes[in] = route
	}
	for out := Port(0); out < numPorts; out++ {
		if r.out[out] != nil {
			continue
		}
		if m.faults != nil && (m.faults.OutputDead(m.flatPort(r, out)) || m.faults.StallOutput(now, m.flatPort(r, out))) {
			continue
		}
		if r.cooldown[out] {
			r.cooldown[out] = false
			m.subWork(r)
			continue
		}
		reqs := m.arbReqs[:0]
		for in := Port(0); in < numPorts; in++ {
			p := heads[in]
			if p == nil || r.inBusy[in] || routes[in] != out {
				continue
			}
			if out != Local {
				next := m.neighbor(r, out)
				if next == nil || !next.in[entryPort(out)].CanAccept(p.Length) {
					continue
				}
			}
			reqs = append(reqs, arb.Request{Input: int(in), Class: p.Class, Packet: p})
		}
		if len(reqs) == 0 {
			m.IdleCycles++
			continue
		}
		m.ArbCycles++
		w := r.arbs[out].Arbitrate(now, reqs)
		if w < 0 {
			continue
		}
		req := reqs[w]
		in := Port(req.Input)
		p := r.in[in].Pop()
		if p != req.Packet {
			//ssvc:coldpath the engine freezes sick here, so this error path may allocate
			head := "empty queue"
			if p != nil {
				head = fmt.Sprintf("packet %d", p.ID)
			}
			m.fail(fmt.Errorf("mesh: cycle %d: router (%d,%d) granted packet %d but head is %s",
				now, r.x, r.y, req.Packet.ID, head))
			return
		}
		if p.GrantedAt == 0 && p.Src == r.id {
			p.GrantedAt = now
		}
		if out != Local {
			m.neighbor(r, out).in[entryPort(out)].Reserve(p.Length)
		}
		// The granted head leaves the buffer but becomes an in-flight
		// transmission, so r's work count is unchanged.
		r.inBusy[in] = true
		r.out[out] = m.txPool.Get(p, int(in))
		r.arbs[out].Granted(now, req)
	}
}
