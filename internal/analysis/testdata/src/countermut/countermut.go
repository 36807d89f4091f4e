// Package countermut is the countersafety mutation meta-fixture: copies
// of the four real subtractions that rest on a guard between two
// non-constant operands, each with that guard deleted. The real tree
// proves them safe only through the interval engine's difference
// entries; the meta-test asserts the analyzer reports every mutated
// copy, proving those entries fail closed rather than merely passing
// on clean code.
package countermut

// Cycle and VTime stand in for the noc time domains.
type (
	Cycle uint64
	VTime uint64
)

// Uint returns the raw cycle count.
func (c Cycle) Uint() uint64 { return uint64(c) }

// Counter mirrors the noc.Counter constraint.
type Counter interface{ ~uint64 }

// SatSub is noc.SatSub.
func SatSub[T Counter](a, b T) T {
	// mutation: `if a < b { return 0 }` deleted
	return a - b // want:countersafety
}

// CCSP is the credit arbiter's clock state.
type CCSP struct {
	lastTick Cycle
	credit   []float64
	rate     []float64
}

// Tick is CCSP.Tick.
func (a *CCSP) Tick(now Cycle) {
	// mutation: `if now <= a.lastTick { return }` deleted
	elapsed := float64((now - a.lastTick).Uint()) // want:countersafety
	a.lastTick = now
	for i := range a.credit {
		a.credit[i] += a.rate[i] * elapsed
	}
}

// SSVC is the auxVC state of the SSVC arbiter.
type SSVC struct {
	aux     []VTime
	quantum VTime
}

// Tick is SSVC.Tick's per-quantum auxVC decrement (Subtract policy).
func (s *SSVC) Tick() {
	for i := range s.aux {
		// mutation: `if s.aux[i] > s.quantum` deleted, with its else arm
		s.aux[i] -= s.quantum // want:countersafety
	}
}

// Collector is the statistics window.
type Collector struct {
	Warmup, End Cycle
}

// Window is Collector.Window.
func (c *Collector) Window() Cycle {
	// mutation: `if c.End <= c.Warmup { return 0 }` deleted
	return c.End - c.Warmup // want:countersafety
}
