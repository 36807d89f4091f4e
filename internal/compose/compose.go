// Package compose simulates networks built from multiple crossbar
// switches, the scaling path the paper declines (§4.4): "Scaling to more
// nodes involves composing multiple switches, which makes the QoS
// technique more complex. Crosspoints will have to be shared by several
// flows, requiring more per-flow state storage."
//
// A composed network is a set of crossbar nodes joined by links, with
// static routing from every node toward every terminal. Each node is the
// same model as the single-stage switch: per-input-port packet buffers,
// one arbiter per output port, whole-packet (virtual cut-through)
// switching with downstream buffer reservation, and a one-cycle
// arbitration overhead per traversed node.
//
// The point the package exists to make: a first-stage crosspoint
// (terminal, uplink) carries every flow that terminal sends through the
// uplink, so an SSVC auxVC register there can only enforce the AGGREGATE
// of their reservations — per-flow guarantees dissolve at the first
// merge, unless routers grow per-flow state. The TwoLevelClos constructor
// plus the experiments package's Compose experiment quantify exactly
// that.
package compose

import (
	"fmt"
	"math/bits"
	"sort"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// PortRef names one port of one node.
type PortRef struct {
	Node int
	Port int
}

// Topology describes a composed network. Ports[n] is node n's port
// count; Links joins output ports to input ports (unidirectional);
// Terminals[t] is the node/port where terminal t attaches (both its
// injection and ejection point); Route gives the output port at a node
// for traffic toward a terminal.
type Topology struct {
	Ports     []int
	Links     map[PortRef]PortRef // from (node, output port) to (node, input port)
	Terminals []PortRef
	Route     func(node, terminal int) int
}

// Validate reports a descriptive error for malformed topologies.
func (t Topology) Validate() error {
	if len(t.Ports) == 0 {
		return fmt.Errorf("compose: no nodes")
	}
	for n, p := range t.Ports {
		if p < 1 {
			return fmt.Errorf("compose: node %d has %d ports", n, p)
		}
	}
	if len(t.Terminals) < 2 {
		return fmt.Errorf("compose: need at least 2 terminals")
	}
	check := func(r PortRef) error {
		if r.Node < 0 || r.Node >= len(t.Ports) || r.Port < 0 || r.Port >= t.Ports[r.Node] {
			return fmt.Errorf("compose: port reference %+v out of range", r)
		}
		return nil
	}
	// Check links in sorted order so the first error reported does not
	// depend on map iteration order.
	froms := make([]PortRef, 0, len(t.Links))
	for from := range t.Links {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool {
		if froms[i].Node != froms[j].Node {
			return froms[i].Node < froms[j].Node
		}
		return froms[i].Port < froms[j].Port
	})
	for _, from := range froms {
		if err := check(from); err != nil {
			return err
		}
		if err := check(t.Links[from]); err != nil {
			return err
		}
	}
	for _, term := range t.Terminals {
		if err := check(term); err != nil {
			return err
		}
	}
	if t.Route == nil {
		return fmt.Errorf("compose: no routing function")
	}
	return nil
}

// TwoLevelClos builds the canonical composition: `leaves` leaf switches,
// each with terminalsPerLeaf terminals and uplinks uplink ports, joined
// by one spine switch. Terminal IDs are leaf-major. Uplink selection is
// deterministic by destination terminal (dst % uplinks), so a flow's path
// is fixed — matching the paper's definition of a flow as packets on one
// route.
func TwoLevelClos(leaves, terminalsPerLeaf, uplinks int) (Topology, error) {
	if leaves < 2 || terminalsPerLeaf < 1 || uplinks < 1 {
		return Topology{}, fmt.Errorf("compose: clos(%d,%d,%d) is degenerate", leaves, terminalsPerLeaf, uplinks)
	}
	leafPorts := terminalsPerLeaf + uplinks
	spine := leaves // spine node index
	spinePorts := leaves * uplinks

	topo := Topology{
		Ports: make([]int, leaves+1),
		Links: make(map[PortRef]PortRef),
	}
	for l := 0; l < leaves; l++ {
		topo.Ports[l] = leafPorts
	}
	topo.Ports[spine] = spinePorts

	for l := 0; l < leaves; l++ {
		for t := 0; t < terminalsPerLeaf; t++ {
			topo.Terminals = append(topo.Terminals, PortRef{Node: l, Port: t})
		}
		for u := 0; u < uplinks; u++ {
			leafUp := PortRef{Node: l, Port: terminalsPerLeaf + u}
			spinePort := PortRef{Node: spine, Port: l*uplinks + u}
			// Bidirectional pair of unidirectional links.
			topo.Links[leafUp] = spinePort
			topo.Links[spinePort] = leafUp
		}
	}
	topo.Route = func(node, terminal int) int {
		dstLeaf := terminal / terminalsPerLeaf
		dstPort := terminal % terminalsPerLeaf
		if node == spine {
			// Downlink toward the destination leaf, spread by terminal.
			return dstLeaf*uplinks + dstPort%uplinks
		}
		if node == dstLeaf {
			return dstPort
		}
		// Uplink, picked deterministically by destination.
		return terminalsPerLeaf + terminal%uplinks
	}
	return topo, nil
}

// node is one crossbar in the composition. The hasNext/next pair is the
// Links map flattened into dense per-port tables so the per-cycle loops
// never hash a PortRef.
type node struct {
	id       int
	in       []*fabric.Buffer
	out      []*fabric.Transmission
	cooldown []bool
	inBusy   []bool
	arbs     []arb.Arbiter
	next     []PortRef // downstream input for each output port...
	hasNext  []bool    // ...valid where true; otherwise the port ejects
}

// addWork records one more work item (buffered packet, transmission, or
// cooldown) at node nd.
//
//ssvc:hotpath
func (n *Network) addWork(nd *node) {
	if n.work[nd.id]++; n.work[nd.id] == 1 {
		arb.MaskSet(n.active, nd.id)
	}
}

// subWork records a completed work item at node nd.
//
//ssvc:hotpath
func (n *Network) subWork(nd *node) {
	if n.work[nd.id]--; n.work[nd.id] == 0 {
		arb.MaskClear(n.active, nd.id)
	}
}

// Config sizes a composed network.
type Config struct {
	Topology    Topology
	BufferFlits int
	// NewArbiter builds the arbiter for (node, output port) over the
	// node's input ports; nil defaults to LRG everywhere. Every call
	// must return an independent instance.
	NewArbiter func(nodeID, port, ports int) arb.Arbiter
}

// Network is the composed-switch simulator. Not safe for concurrent use.
//
// The embedded fabric.Counters exposes the common utilization counters;
// Network implements fabric.Engine.
type Network struct {
	fabric.Counters
	fabric.Hooks

	cfg     Config
	nodes   []*node
	sources *fabric.Sources // one injection group per terminal
	txPool  fabric.TxPool
	now     noc.Cycle
	err     error // terminal invariant violation; freezes the engine

	faults   *faults.Injector
	portBase []int // flat fault-port id of each node's port 0

	arbReqs []arb.Request // scratch: requests handed to one arbitration
	heads   []*noc.Packet // scratch: per-node head snapshot
	routes  []int         // scratch: cached Route(node, head.Dst) per head

	totalPorts int

	// Event-driven work tracking (see DESIGN.md "Event-driven idle
	// skipping"): work[id] counts node id's buffered packets, in-flight
	// transmissions, and pending cooldowns; active masks the nodes where
	// it is nonzero.
	work   []int
	active []uint64
}

// Network is driven through the shared engine interface by the
// experiments layer.
var _ fabric.Engine = (*Network)(nil)

// New builds a composed network.
func New(cfg Config) (*Network, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.BufferFlits < 1 {
		return nil, fmt.Errorf("compose: buffer capacity %d must be positive", cfg.BufferFlits)
	}
	newArb := cfg.NewArbiter
	if newArb == nil {
		newArb = func(_, _, ports int) arb.Arbiter { return arb.NewLRG(ports) }
	}
	net := &Network{cfg: cfg}
	maxPorts, totalPorts := 0, 0
	for _, p := range cfg.Topology.Ports {
		if p > maxPorts {
			maxPorts = p
		}
		totalPorts += p
	}
	net.arbReqs = make([]arb.Request, 0, maxPorts)
	net.heads = make([]*noc.Packet, maxPorts)
	net.routes = make([]int, maxPorts)
	net.portBase = make([]int, len(cfg.Topology.Ports))
	base := 0
	for id, p := range cfg.Topology.Ports {
		net.portBase[id] = base
		base += p
	}
	nodes := len(cfg.Topology.Ports)
	net.sources = fabric.NewSources(len(cfg.Topology.Terminals))
	net.txPool.Preload(totalPorts)
	net.work = make([]int, nodes)
	net.active = make([]uint64, arb.MaskWords(nodes))
	for id, ports := range cfg.Topology.Ports {
		n := &node{
			id:       id,
			in:       make([]*fabric.Buffer, ports),
			out:      make([]*fabric.Transmission, ports),
			cooldown: make([]bool, ports),
			inBusy:   make([]bool, ports),
			arbs:     make([]arb.Arbiter, ports),
			next:     make([]PortRef, ports),
			hasNext:  make([]bool, ports),
		}
		for p := 0; p < ports; p++ {
			n.in[p] = fabric.NewBuffer(cfg.BufferFlits)
			n.arbs[p] = newArb(id, p, ports)
			n.next[p], n.hasNext[p] = cfg.Topology.Links[PortRef{Node: id, Port: p}]
		}
		net.nodes = append(net.nodes, n)
	}
	net.totalPorts = totalPorts
	return net, nil
}

// recomputeActive rebuilds the work counts and activity masks from first
// principles after fault handling has flushed state wholesale. Cold path.
func (n *Network) recomputeActive() {
	arb.MaskZero(n.active)
	for _, nd := range n.nodes {
		c := 0
		for port := range nd.in {
			c += nd.in[port].Len()
			if nd.out[port] != nil {
				c++
			}
			if nd.cooldown[port] {
				c++
			}
		}
		n.work[nd.id] = c
		if c > 0 {
			arb.MaskSet(n.active, nd.id)
		}
	}
}

// Terminals returns the number of attachable endpoints.
func (n *Network) Terminals() int { return len(n.cfg.Topology.Terminals) }

// Err returns the terminal error that froze the network, or nil.
func (n *Network) Err() error { return n.err }

// fail records the first invariant violation and freezes the engine.
func (n *Network) fail(err error) {
	if n.err == nil {
		n.err = err
	}
}

// SetFaults installs a fault-injection schedule; call before the first
// Step. Port addressing: an Input fail-stop port is a terminal ID (its
// injection dies and its queued packets at the attachment port are
// flushed); stall and output fail-stop ports are flattened (node, output
// port) ids — node n's port p is PortBase(n)+p. A packet whose static
// route reaches a dead port is discarded at that node. As with the
// mesh, there is no per-flow re-reservation in degraded mode: shared
// crosspoints cannot tell surviving flows apart (§4.4).
func (n *Network) SetFaults(cfg faults.Config) error {
	if n.now != 0 {
		return fmt.Errorf("compose: SetFaults after cycle 0 (now=%d)", n.now)
	}
	total := 0
	for _, p := range n.cfg.Topology.Ports {
		total += p
	}
	if err := cfg.Validate(n.Terminals(), total); err != nil {
		return err
	}
	n.faults = faults.New(cfg)
	return nil
}

// FaultTotals returns the injector's fault counters (zero if no schedule
// is installed).
func (n *Network) FaultTotals() faults.Counters {
	if n.faults == nil {
		return faults.Counters{}
	}
	return n.faults.Totals()
}

// PortBase returns the flat fault-port id of node's port 0 (see
// SetFaults).
func (n *Network) PortBase(node int) int { return n.portBase[node] }

// Now returns the current cycle.
func (n *Network) Now() noc.Cycle { return n.now }

// AddFlow attaches a flow between terminals (Spec.Src/Dst are terminal
// IDs). Flows sharing a source terminal share one injection group.
func (n *Network) AddFlow(f traffic.Flow) error {
	if f.Spec.Src < 0 || f.Spec.Src >= n.Terminals() || f.Spec.Dst < 0 || f.Spec.Dst >= n.Terminals() {
		return fmt.Errorf("compose: flow %d->%d outside %d terminals", f.Spec.Src, f.Spec.Dst, n.Terminals())
	}
	if f.Spec.Src == f.Spec.Dst {
		return fmt.Errorf("compose: flow %d->%d routes to itself", f.Spec.Src, f.Spec.Dst)
	}
	if f.Gen == nil {
		return fmt.Errorf("compose: flow %d->%d has no generator", f.Spec.Src, f.Spec.Dst)
	}
	n.sources.Add(f, f.Spec.Src)
	return nil
}

// Step advances one cycle. After a terminal error, Step is a no-op.
//
//ssvc:hotpath
func (n *Network) Step() {
	if n.err != nil {
		return
	}
	now := n.now
	if n.faults != nil {
		if fs := n.faults.BeginCycle(now); len(fs) > 0 {
			for _, f := range fs {
				n.applyFailStop(f)
			}
			n.recomputeActive()
		}
	}
	n.inject(now)
	n.transfer(now)
	n.arbitrate(now)
	for _, nd := range n.nodes {
		for _, a := range nd.arbs {
			a.Tick(now)
		}
	}
	n.now++
}

// Run advances the given number of cycles, stopping early if the engine
// fails sick.
func (n *Network) Run(cycles noc.Cycle) {
	for i := noc.Cycle(0); i < cycles && n.err == nil; i++ {
		n.Step()
	}
}

// dropPkt counts and releases a packet discarded by a fault.
func (n *Network) dropPkt(p *noc.Packet) {
	n.Dropped++
	n.Drop(p)
}

// applyFailStop flushes state referencing a port that just died. Input
// fail-stops address terminal IDs; output fail-stops address flattened
// (node, port) ids. Queued packets routing onto a dead port are
// discarded lazily when they surface at a node's head (see arbitrate).
func (n *Network) applyFailStop(f faults.FailStop) {
	if f.Input {
		at := n.cfg.Topology.Terminals[f.Port]
		nd := n.nodes[at.Node]
		nd.in[at.Port].DropWhere(func(*noc.Packet) bool { return true }, n.dropPkt)
		for out := range nd.out {
			if tx := nd.out[out]; tx != nil && tx.Input == at.Port {
				n.abortTx(nd, out)
			}
		}
		nd.inBusy[at.Port] = false
		return
	}
	nd := n.nodes[nodeOf(n.portBase, f.Port)]
	port := f.Port - n.portBase[nd.id]
	if nd.out[port] != nil {
		n.abortTx(nd, port)
	}
}

// nodeOf finds the node owning a flat port id given the per-node bases.
func nodeOf(bases []int, flat int) int {
	id := len(bases) - 1
	for id > 0 && bases[id] > flat {
		id--
	}
	return id
}

// abortTx kills an in-flight transfer on one node output, releasing its
// downstream reservation and dropping the packet.
func (n *Network) abortTx(nd *node, out int) {
	tx := nd.out[out]
	pkt, from := tx.Pkt, tx.Input
	nd.inBusy[from] = false
	nd.out[out] = nil
	n.txPool.Put(tx)
	if nd.hasNext[out] {
		next := nd.next[out]
		n.nodes[next.Node].in[next.Port].Unreserve(pkt.Length)
	}
	n.dropPkt(pkt)
}

// inject lets every generator emit, then admits at most one packet per
// terminal per cycle, rotating across the terminal's flows so that
// co-located flows share the injection port fairly.
//
//ssvc:hotpath
func (n *Network) inject(now noc.Cycle) {
	n.Injected += n.sources.Generate(now)
	try := func(p *noc.Packet) bool {
		// A fail-stopped terminal generates into a dead attachment port:
		// accept and discard so the source queue cannot grow unbounded.
		if n.faults != nil && n.faults.InputDead(p.Src) {
			n.dropPkt(p)
			return true
		}
		at := n.cfg.Topology.Terminals[p.Src]
		nd := n.nodes[at.Node]
		if !nd.in[at.Port].Admit(p) {
			return false
		}
		p.EnqueuedAt = now
		n.Admitted++
		n.addWork(nd)
		return true
	}
	if n.faults != nil {
		for term := 0; term < n.sources.Groups(); term++ {
			n.sources.AdmitGroup(term, try)
		}
		return
	}
	// Fault-free fast path: an empty-queue terminal cannot admit, so only
	// scan terminals the sources layer marked nonempty. Pops clear bits
	// in place; the per-word snapshot keeps this cycle's scan set fixed.
	visited := 0
	for w, mm := range n.sources.NonEmptyMask() {
		for mm != 0 {
			term := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			n.sources.AdmitGroup(term, try)
			visited++
		}
	}
	n.SkippedAdmits += uint64(n.sources.Groups() - visited)
}

//ssvc:hotpath
func (n *Network) transfer(now noc.Cycle) {
	if n.faults != nil {
		for _, nd := range n.nodes {
			n.transferNode(nd, now)
		}
		return
	}
	// Fault-free fast path: a transfer only advances a non-nil output
	// channel, and every in-flight transmission is a counted work item,
	// so inactive nodes are provably no-ops. Completions committing into
	// a downstream node may set its bit mid-walk; the full walk would
	// find that node transfer-idle too (a committed packet is not a
	// transmission), so visiting or skipping it is equivalent.
	for w, mm := range n.active {
		for mm != 0 {
			id := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			n.transferNode(n.nodes[id], now)
		}
	}
}

// transferNode advances node nd's busy output channels one flit.
//
//ssvc:hotpath
func (n *Network) transferNode(nd *node, now noc.Cycle) {
	for port := range nd.out {
		tx := nd.out[port]
		if tx == nil {
			continue
		}
		if n.faults != nil && n.faults.StallOutput(now, n.portBase[nd.id]+port) {
			continue // stalled link: the in-flight transfer freezes
		}
		n.DataCycles++
		tx.Remaining--
		if tx.Remaining > 0 {
			continue
		}
		// Channel teardown swaps the transmission work item for the
		// cooldown one, so nd's work count is unchanged here.
		pkt, from := tx.Pkt, tx.Input
		nd.inBusy[from] = false
		nd.out[port] = nil
		nd.cooldown[port] = true
		n.txPool.Put(tx)
		// Receiver-side modeled CRC check (see internal/faults): a
		// corrupted hop is NACKed back to the upstream queue head
		// (reservation released) or dropped once out of retries.
		if n.faults != nil && n.faults.CorruptArrival(pkt) {
			if nd.hasNext[port] {
				next := nd.next[port]
				n.nodes[next.Node].in[next.Port].Unreserve(pkt.Length)
			}
			if n.faults.Retry(now, pkt) {
				nd.in[from].PushFront(pkt)
				n.addWork(nd)
			} else {
				n.dropPkt(pkt)
			}
			continue
		}
		if nd.hasNext[port] {
			next := nd.next[port]
			dst := n.nodes[next.Node]
			dst.in[next.Port].Commit(pkt)
			n.addWork(dst)
			continue
		}
		// No link: this port is a terminal ejection.
		pkt.DeliveredAt = now
		n.Delivered++
		n.Deliver(pkt)
	}
}

//ssvc:hotpath
func (n *Network) arbitrate(now noc.Cycle) {
	if n.faults != nil {
		for _, nd := range n.nodes {
			if n.err != nil {
				return
			}
			n.arbitrateNode(nd, now)
		}
		return
	}
	// Fault-free fast path: an inactive node has no head to grant, no
	// cooldown to clear, and no busy output — the full walk would count
	// all its outputs idle and move on. Bulk-account those outputs as
	// skipped idle cycles instead of touching them. Fault-free
	// arbitration never pushes packets, so no bit sets mid-walk; clears
	// only affect the node being visited.
	visitedPorts := 0
	for w, mm := range n.active {
		for mm != 0 {
			id := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			if n.err != nil {
				return
			}
			nd := n.nodes[id]
			n.arbitrateNode(nd, now)
			visitedPorts += len(nd.out)
		}
	}
	if n.err == nil {
		skipped := uint64(n.totalPorts - visitedPorts)
		n.IdleCycles += skipped
		n.SkippedOutputs += skipped
	}
}

// arbitrateNode grants node nd's idle outputs.
//
//ssvc:hotpath
func (n *Network) arbitrateNode(nd *node, now noc.Cycle) {
	// Snapshot head packets once per node so one input cannot be
	// granted by two outputs in the same cycle, and cache each
	// head's route (Route is pure, so once per cycle suffices).
	ports := len(nd.in)
	heads := n.heads[:ports]
	routes := n.routes[:ports]
	for port := range nd.in {
		heads[port] = nil
		if nd.inBusy[port] {
			continue
		}
		p := nd.in[port].Head()
		if p == nil || p.HoldUntil > now {
			continue // empty, or backing off a retransmission
		}
		route := n.cfg.Topology.Route(nd.id, p.Dst)
		if n.faults != nil && n.faults.OutputDead(n.portBase[nd.id]+route) {
			// The static route dead-ends here: discard so upstream
			// buffers keep draining toward the fault point.
			n.dropPkt(nd.in[port].Pop())
			n.subWork(nd)
			continue
		}
		heads[port] = p
		routes[port] = route
	}
	for out := range nd.out {
		if nd.out[out] != nil {
			continue
		}
		if n.faults != nil && (n.faults.OutputDead(n.portBase[nd.id]+out) || n.faults.StallOutput(now, n.portBase[nd.id]+out)) {
			continue
		}
		if nd.cooldown[out] {
			nd.cooldown[out] = false
			n.subWork(nd)
			continue
		}
		reqs := n.arbReqs[:0]
		for in, p := range heads {
			if p == nil || routes[in] != out {
				continue
			}
			if nd.hasNext[out] {
				next := nd.next[out]
				if !n.nodes[next.Node].in[next.Port].CanAccept(p.Length) {
					continue
				}
			}
			reqs = append(reqs, arb.Request{Input: in, Class: p.Class, Packet: p})
		}
		if len(reqs) == 0 {
			n.IdleCycles++
			continue
		}
		n.ArbCycles++
		w := nd.arbs[out].Arbitrate(now, reqs)
		if w < 0 {
			continue
		}
		req := reqs[w]
		p := nd.in[req.Input].Pop()
		if p != req.Packet {
			//ssvc:coldpath the engine freezes sick here, so this error path may allocate
			head := "empty queue"
			if p != nil {
				head = fmt.Sprintf("packet %d", p.ID)
			}
			n.fail(fmt.Errorf("compose: cycle %d: node %d granted packet %d but head is %s",
				now, nd.id, req.Packet.ID, head))
			return
		}
		if p.GrantedAt == 0 {
			p.GrantedAt = now
		}
		if nd.hasNext[out] {
			next := nd.next[out]
			n.nodes[next.Node].in[next.Port].Reserve(p.Length)
		}
		// The granted head leaves the buffer but becomes an in-flight
		// transmission, so nd's work count is unchanged.
		nd.inBusy[req.Input] = true
		nd.out[out] = n.txPool.Get(p, req.Input)
		nd.arbs[out].Granted(now, req)
	}
}
