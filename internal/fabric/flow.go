package fabric

import (
	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// FlowQueue binds one flow to its unbounded source queue. Generators are
// open-loop: the engine owns the queue and accepted throughput is
// measured at the output, following standard interconnection-network
// methodology.
type FlowQueue struct {
	Flow  traffic.Flow
	queue []*noc.Packet
	head  int
}

// Queued returns the source-queue depth in packets.
func (f *FlowQueue) Queued() int { return len(f.queue) - f.head }

// Peek returns the head packet without removing it, or nil.
func (f *FlowQueue) Peek() *noc.Packet {
	if f.head >= len(f.queue) {
		return nil
	}
	return f.queue[f.head]
}

// Pop removes and returns the head packet. The queue compacts in place
// once the dead prefix dominates, so a long-lived source stays at its
// peak footprint instead of growing without bound.
func (f *FlowQueue) Pop() *noc.Packet {
	p := f.queue[f.head]
	f.queue[f.head] = nil
	f.head++
	if f.head > 64 && f.head*2 >= len(f.queue) {
		n := copy(f.queue, f.queue[f.head:])
		for i := n; i < len(f.queue); i++ {
			f.queue[i] = nil
		}
		f.queue = f.queue[:n]
		f.head = 0
	}
	return p
}

// push appends a generated packet.
func (f *FlowQueue) push(p *noc.Packet) { f.queue = append(f.queue, p) }

// Sources is the set of flow source queues attached to an engine,
// grouped by injection point (the input port of the crossbar, the
// terminal of a composition, or the flow itself when every flow injects
// independently). Admission rotates round-robin within a group so
// co-located flows share their injection port fairly.
//
// Generation runs on an arrival calendar: every flow holds at most one
// slot in a min-heap of predicted arrival cycles (traffic.Scheduler),
// so an idle cycle is one heap-top comparison instead of one generator
// call per flow. A flow may join at any cycle (Add arms it from the
// next generated cycle), leave generation while its queue drains
// (Stop), or have its slot recomputed after a feedback event (Wake).
// A generator that cannot predict its arrivals gets a per-cycle
// wake-up adapter, so there is one generation path. The calendar
// reproduces the per-cycle polling protocol's RNG draw order and
// packet-ID order exactly (see TestSourcesEventDrivenMatchesPolled and
// TestSourcesDynamicMatchesPolled, whose polled oracle lives in the
// tests).
type Sources struct {
	flows    []*FlowQueue
	groups   [][]int  // flow indices per group
	rr       []int    // per-group admission rotation
	groupOf  []int    // flow index -> group
	depth    []int    // per-group queued packets
	nonempty []uint64 // mask of groups with at least one queued packet

	// onNewHead, if set, fires when a flow queue goes empty -> nonempty:
	// the one generation event that can change a group's admission
	// outcome (a push behind an existing head leaves every admission
	// decision as it was). Engines use it to invalidate admission-skip
	// state.
	onNewHead func(group int)

	// Arrival calendar. Flows added before the first Generate are armed
	// there; after it, a live flow is either filed (pos >= 0) or blocked
	// on a queue pop (pos < 0), and a stopped flow is never filed.
	sched   []traffic.Scheduler // per flow: its generator, or a pollEvery adapter
	pos     []int32             // per flow: calendar slot, -1 when not filed
	stopped []bool              // per flow: out of generation for good
	cal     []calEntry          // min-heap on (at, flow index)
	started bool                // the first Generate has run
	next    noc.Cycle           // cycle of the next Generate, once started
}

// calEntry is one armed flow in the arrival calendar.
type calEntry struct {
	at noc.Cycle
	fi int32
}

// pollEvery is the calendar face of a generator that cannot predict
// its arrivals: it wakes every cycle, and Emit polls Tick with the
// flow's current queue depth — the per-cycle protocol, unchanged.
type pollEvery struct {
	gen traffic.Generator
	fq  *FlowQueue
}

func (a *pollEvery) Tick(now noc.Cycle, queued int) *noc.Packet { return a.gen.Tick(now, queued) }

func (a *pollEvery) NextArrival(from noc.Cycle, _ int) (noc.Cycle, bool) { return from, true }

func (a *pollEvery) Emit(now noc.Cycle) *noc.Packet { return a.gen.Tick(now, a.fq.Queued()) }

// NewSources returns a source set with the given number of injection
// groups.
func NewSources(groups int) *Sources {
	return &Sources{
		groups:   make([][]int, groups),
		rr:       make([]int, groups),
		depth:    make([]int, groups),
		nonempty: make([]uint64, arb.MaskWords(groups)),
	}
}

// Add attaches a flow to an injection group and returns its flow index.
// Once generation has started, the flow is armed from the next
// generated cycle, exactly when a per-cycle poll would first tick it.
// Validation is the engine's job; Sources only stores.
func (s *Sources) Add(f traffic.Flow, group int) int {
	fq := &FlowQueue{Flow: f}
	i := len(s.flows)
	s.flows = append(s.flows, fq)
	s.groups[group] = append(s.groups[group], i)
	s.groupOf = append(s.groupOf, group)
	sc, ok := f.Gen.(traffic.Scheduler)
	if !ok {
		sc = &pollEvery{gen: f.Gen, fq: fq}
	}
	s.sched = append(s.sched, sc)
	s.pos = append(s.pos, -1)
	s.stopped = append(s.stopped, false)
	if s.started {
		s.arm(i, s.next)
	}
	return i
}

// AddOwnGroup grows the group set by one and attaches the flow to the
// new group — the discipline of engines where every flow injects at its
// own private point (the mesh's local ports admit one packet per flow
// per cycle, not one per node).
func (s *Sources) AddOwnGroup(f traffic.Flow) int {
	s.groups = append(s.groups, nil)
	s.rr = append(s.rr, 0)
	s.depth = append(s.depth, 0)
	if w := arb.MaskWords(len(s.groups)); w > len(s.nonempty) {
		s.nonempty = append(s.nonempty, 0)
	}
	return s.Add(f, len(s.groups)-1)
}

// SetOnNewHead registers the empty->nonempty queue transition callback.
func (s *Sources) SetOnNewHead(fn func(group int)) { s.onNewHead = fn }

// GroupQueued returns the total source-queue depth of a group's flows.
func (s *Sources) GroupQueued(group int) int { return s.depth[group] }

// NonEmptyMask returns the mask of groups with at least one queued
// packet, maintained at every depth transition. Engines iterate it to
// visit only injection points that can possibly admit this cycle; an
// AdmitGroup on a clear-bit group is provably barren. The slice aliases
// internal state: treat it as read-only, valid until the next
// Generate/AdmitGroup/AddOwnGroup call.
func (s *Sources) NonEmptyMask() []uint64 { return s.nonempty }

// Len returns the number of attached flows.
func (s *Sources) Len() int { return len(s.flows) }

// Groups returns the number of injection groups.
func (s *Sources) Groups() int { return len(s.groups) }

// Flow returns flow index i's queue.
func (s *Sources) Flow(i int) *FlowQueue { return s.flows[i] }

// Stop takes flow i out of generation for good: its calendar slot is
// cleared and it is never armed again, while the packets already in
// its queue keep draining through admission. A stopped generator is
// never called again.
func (s *Sources) Stop(i int) {
	s.stopped[i] = true
	if p := s.pos[i]; p >= 0 {
		s.calRemove(int(p))
	}
}

// Wake recomputes flow i's calendar slot from the next generated cycle.
// The owner of a feedback-driven generator calls it after every event
// outside generation that can move the generator's next arrival (a
// traffic.ClosedLoop delivery). The generator's NextArrival must draw
// nothing, since it is asked again for an arrival it already
// announced. Wake before the first Generate, or on a stopped flow, is
// a no-op.
//
//ssvc:hotpath
func (s *Sources) Wake(i int) {
	if !s.started || s.stopped[i] {
		return
	}
	if p := s.pos[i]; p >= 0 {
		s.calRemove(int(p))
	}
	s.arm(i, s.next)
}

// start arms every live flow from the first generated cycle (no Tick
// has ever run, so the generators' RNG streams start exactly where the
// polled protocol would start them).
func (s *Sources) start(now noc.Cycle) {
	s.started = true
	for i := range s.flows {
		if !s.stopped[i] {
			s.arm(i, now)
		}
	}
}

// arm asks flow i's scheduler for its next arrival at or after `from`
// and files it in the calendar, or leaves it blocked until a queue pop.
//
//ssvc:hotpath
func (s *Sources) arm(i int, from noc.Cycle) {
	if at, ok := s.sched[i].NextArrival(from, s.flows[i].Queued()); ok {
		s.calPush(calEntry{at: at, fi: int32(i)})
	}
}

// calPush files an entry in the min-heap. The heap is ordered on
// (cycle, flow index), so same-cycle emissions pop in flow order —
// the exact order of the polled walk.
//
//ssvc:hotpath
func (s *Sources) calPush(e calEntry) {
	s.cal = append(s.cal, e)
	s.calUp(len(s.cal) - 1)
}

// calRemove clears heap slot c, filling it with the last entry.
//
//ssvc:hotpath
func (s *Sources) calRemove(c int) {
	last := len(s.cal) - 1
	s.pos[s.cal[c].fi] = -1
	s.cal[c] = s.cal[last]
	s.cal = s.cal[:last]
	if c < last && !s.calUp(c) {
		s.calDown(c)
	}
}

// calUp sifts slot c toward the root and reports whether it moved.
// Like calDown it moves a hole rather than swapping, so each level
// costs one entry copy and one position store.
//
//ssvc:hotpath
func (s *Sources) calUp(c int) bool {
	e, start := s.cal[c], c
	for c > 0 {
		parent := (c - 1) / 2
		if !calLess(e, s.cal[parent]) {
			break
		}
		s.calPlace(c, s.cal[parent])
		c = parent
	}
	s.calPlace(c, e)
	return c != start
}

// calDown sifts slot c toward the leaves.
//
//ssvc:hotpath
func (s *Sources) calDown(c int) {
	e, n := s.cal[c], len(s.cal)
	for {
		m := 2*c + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && calLess(s.cal[r], s.cal[m]) {
			m = r
		}
		if !calLess(s.cal[m], e) {
			break
		}
		s.calPlace(c, s.cal[m])
		c = m
	}
	s.calPlace(c, e)
}

// calPlace files entry e in heap slot c.
func (s *Sources) calPlace(c int, e calEntry) {
	s.cal[c] = e
	s.pos[e.fi] = int32(c)
}

func calLess(a, b calEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.fi < b.fi
}

// Generate pops every calendar slot due at now, lets each flow's
// scheduler emit (a wake-up may emit nothing), re-arms it from now+1,
// and returns the number of packets created this cycle. An idle cycle
// is a single heap-top comparison.
//
//ssvc:hotpath
func (s *Sources) Generate(now noc.Cycle) uint64 {
	if !s.started {
		s.start(now)
	}
	s.next = now + 1
	var injected uint64
	for len(s.cal) > 0 && s.cal[0].at <= now {
		i := int(s.cal[0].fi)
		fq := s.flows[i]
		if p := s.sched[i].Emit(now); p != nil {
			s.record(i, fq, p)
			injected++
		}
		// Re-file the flow in the slot it is leaving: one sift instead
		// of a pop and a push.
		if at, ok := s.sched[i].NextArrival(now+1, fq.Queued()); ok {
			s.cal[0].at = at
			s.calDown(0)
		} else {
			s.calRemove(0)
		}
	}
	return injected
}

// record pushes a generated packet and maintains the group depth
// accounting.
//
//ssvc:hotpath
func (s *Sources) record(i int, fq *FlowQueue, p *noc.Packet) {
	fq.push(p)
	g := s.groupOf[i]
	if s.depth[g]++; s.depth[g] == 1 {
		arb.MaskSet(s.nonempty, g)
	}
	if fq.Queued() == 1 && s.onNewHead != nil {
		s.onNewHead(g)
	}
}

// AdmitGroup moves at most one packet from the group's source queues
// toward the engine, rotating across the group's flows for fairness. try
// inspects a head packet and, if the engine accepts it (buffer space,
// admission gates), completes the admission — stamping, buffering,
// observer notification — and reports success; AdmitGroup then pops the
// packet and advances the rotation. It returns the admitted packet, or
// nil if no head was accepted.
func (s *Sources) AdmitGroup(group int, try func(*noc.Packet) bool) *noc.Packet {
	idxs := s.groups[group]
	n := len(idxs)
	for k := 0; k < n; k++ {
		fi := idxs[(s.rr[group]+k)%n]
		fq := s.flows[fi]
		p := fq.Peek()
		if p == nil || !try(p) {
			continue
		}
		fq.Pop()
		if s.depth[group]--; s.depth[group] == 0 {
			arb.MaskClear(s.nonempty, group)
		}
		s.rr[group] = (s.rr[group] + k + 1) % n
		if s.started && s.pos[fi] < 0 && !s.stopped[fi] {
			// A depth-bounded flow was waiting on exactly this pop; re-arm
			// it from the next cycle (Tick would next see the lower depth
			// then — admission runs after generation within a cycle).
			s.arm(fi, s.next)
		}
		return p
	}
	return nil
}
