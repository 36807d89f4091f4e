// Package fabric is the shared simulation kernel under the repository's
// three cycle-accurate engines: the single-stage crossbar
// (internal/switchsim), the 2D-mesh baseline (internal/mesh), and the
// multi-switch composition (internal/compose). Each engine models a
// different topology, but all three are built from the same primitives —
// an unbounded per-flow source queue, a reserving whole-packet input
// buffer, an output-channel transmission slot, delivery/release observer
// hooks, and a common counter block — and this package holds the single
// definition of each.
//
// Everything here is tuned for the engines' steady-state cycle loops:
// queues compact in place instead of reallocating, transmissions come
// from a free list, and the release hook feeds delivered packets back to
// traffic.Sequence so generation reuses retired packet structs. With
// recycling wired, all three engines run their steady state without heap
// allocation (see the *CycleRecycled benchmarks in each engine package).
//
// Like the engines themselves, nothing in this package is safe for
// concurrent use; parallel sweeps give every engine its own instance
// (see internal/runner).
package fabric

import (
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// Counters is the common utilization counter block every engine exposes.
// Injected/Admitted/Delivered count packets; the *Cycles counters count
// output-channel cycles: a channel cycle either moves a flit (Data),
// performs an arbitration among live requests (Arb), or does neither
// (Idle). Engines embed Counters, so the fields promote to the engine
// type and Totals satisfies the Engine interface.
type Counters struct {
	Injected   uint64 // packets created by generators
	Admitted   uint64 // packets that entered an input buffer
	Delivered  uint64 // packets fully transmitted
	Dropped    uint64 // packets discarded (retry budget exhausted, failed port)
	ArbCycles  uint64 // output-cycles spent arbitrating (with requests)
	IdleCycles uint64 // output-cycles with no requests and no data
	DataCycles uint64 // output-cycles moving a flit

	// Event-driven skip accounting. The engines' cycle loops visit only
	// ports with work; these counters record what the loops proved they
	// could skip, making the fast path's coverage observable. A skipped
	// output-cycle is also counted in IdleCycles (skipping never changes
	// the simulated schedule, only the host work to compute it).
	SkippedOutputs uint64 // idle output-cycles skipped without a visit
	SkippedAdmits  uint64 // admission scans skipped (provably nothing to admit)
}

// Totals returns a copy of the counter block.
func (c *Counters) Totals() Counters { return *c }

// Hooks is the delivery/release observer pair shared by all engines.
// Engines embed Hooks to gain the OnDeliver/OnRelease registration API
// and call Deliver on packet completion.
type Hooks struct {
	onDeliver func(*noc.Packet)
	onRelease func(*noc.Packet)
}

// OnDeliver registers a callback invoked for every fully delivered
// packet, after its DeliveredAt timestamp is set.
func (h *Hooks) OnDeliver(fn func(*noc.Packet)) { h.onDeliver = fn }

// OnRelease registers a callback invoked after the delivery observer has
// seen a packet and the engine holds no further reference to it. Wiring
// it to traffic.Sequence.Recycle makes the steady-state cycle loop
// allocation-free: delivered packets are reused by subsequent generation.
// The caller guarantees nothing retains the pointer past delivery.
func (h *Hooks) OnRelease(fn func(*noc.Packet)) { h.onRelease = fn }

// Deliver runs the delivery observer and then the release hook for a
// completed packet. The engine must not touch p afterwards.
func (h *Hooks) Deliver(p *noc.Packet) {
	if h.onDeliver != nil {
		h.onDeliver(p)
	}
	if h.onRelease != nil {
		h.onRelease(p)
	}
}

// Drop runs only the release hook for a packet the engine discards
// without delivering (retry budget exhausted, or destined to a
// fail-stopped port). The delivery observer never sees dropped packets:
// they must not contribute to latency or throughput statistics, but
// their storage is still recycled. The engine must not touch p
// afterwards.
func (h *Hooks) Drop(p *noc.Packet) {
	if h.onRelease != nil {
		h.onRelease(p)
	}
}

// Clockable is the minimal cycle-driven simulation surface: anything
// that can be stepped one cycle at a time and reports simulated time.
type Clockable interface {
	// Step advances the simulation one cycle.
	Step()
	// Run advances the simulation n cycles.
	Run(n noc.Cycle)
	// Now returns the current cycle.
	Now() noc.Cycle
}

// Engine is the interface the runner, statistics, and experiments layers
// program against instead of the three concrete engine types. All three
// engines (switchsim.Switch, mesh.Mesh, compose.Network) implement it:
// attach flows, register observers, drive the clock, read counters.
type Engine interface {
	Clockable
	// AddFlow attaches a flow and its generator to the engine.
	AddFlow(traffic.Flow) error
	// OnDeliver registers the delivery observer.
	OnDeliver(func(*noc.Packet))
	// OnRelease registers the packet-release hook (packet recycling).
	OnRelease(func(*noc.Packet))
	// Totals returns the engine's common counter block.
	Totals() Counters
}

// ErrorReporter is implemented by engines that can fail sick instead of
// panicking: after an internal invariant violation the engine freezes
// (Step becomes a no-op) and Err returns the cause. Layers driving an
// Engine should type-assert for it after Run and surface the error
// instead of trusting the (partial) counters.
type ErrorReporter interface {
	// Err returns the terminal error that halted the engine, or nil.
	Err() error
}
