// Package countersafebad is a lint fixture for the countersafety
// analyzer: every construct it must flag carries a trailing
// want-marker, and every guarded shape it must accept is marker-free.
// The package never builds into the module (testdata is skipped); it
// only has to type-check under the analyzer's loader.
package countersafebad

import "math"

type counter uint64

// Unguarded is the base case: nothing proves a >= b.
func Unguarded(a, b uint64) uint64 {
	return a - b // want:countersafety
}

// Guarded subtracts under a dominating guard on the true branch.
func Guarded(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return 0
}

// GuardedFlipped spells the same guard with the operands swapped.
func GuardedFlipped(a, b uint64) uint64 {
	if b <= a {
		return a - b
	}
	return 0
}

// Inverted guards the wrong operand order.
func Inverted(a, b uint64) uint64 {
	if a >= b {
		return b - a // want:countersafety
	}
	return 0
}

// EarlyReturn dominates by eliminating the wrapping path — the shape
// of noc.SatSub.
func EarlyReturn(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// ElseBranch subtracts the other way round on the else edge, where the
// failed test proves b > a.
func ElseBranch(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}

// KilledGuard reassigns the minuend after establishing the guard.
func KilledGuard(a, b uint64) uint64 {
	if a >= b {
		a = b / 2
		return a - b // want:countersafety
	}
	return 0
}

// AndGuard: both conjuncts hold on the true edge.
func AndGuard(a, b, c uint64) uint64 {
	if a >= b && a >= c {
		return (a - b) + (a - c)
	}
	return 0
}

// OrGuard: a disjunction proves neither disjunct on its true edge.
func OrGuard(a, b, c uint64) uint64 {
	if a >= b || a >= c {
		return a - b // want:countersafety
	}
	return 0
}

// NotGuard: negation flips the edge sense.
func NotGuard(a, b uint64) uint64 {
	if !(a < b) {
		return a - b
	}
	return 0
}

// LoopGuard: the loop condition guards the body on every iteration;
// the kill of a by the division forces re-establishment via the back
// edge through the condition.
func LoopGuard(a, b uint64) uint64 {
	var s uint64
	for a >= b {
		s += a - b
		a /= 2
	}
	return s
}

// PostKill: the increment in the body invalidates the pre-loop guard
// across the back edge, so no iteration after the first is proven.
func PostKill(a, b uint64) uint64 {
	var s uint64
	if a >= b {
		for i := 0; i < 3; i++ {
			s += a - b // want:countersafety
			a++
		}
	}
	return s
}

// SubAssign: compound subtraction is the same hazard.
func SubAssign(a, b uint64) uint64 {
	a -= b // want:countersafety
	return a
}

// SubAssignGuarded is fine.
func SubAssignGuarded(a, b uint64) uint64 {
	if a >= b {
		a -= b
	}
	return a
}

// SwitchGuard: tagless switch cases are branch edges; the default arm
// inherits the negation of every failed case.
func SwitchGuard(a, b uint64) uint64 {
	switch {
	case a >= b:
		return a - b
	default:
		return b - a // fine: the failed case proves b > a
	}
}

// TypeSwitchKeeps: a type switch mutates nothing, so the entry guard
// survives into every arm.
func TypeSwitchKeeps(v any, a, b uint64) uint64 {
	if a < b {
		return 0
	}
	switch v.(type) {
	case int:
		return a - b
	default:
		return a - b
	}
}

// Decrement: a > 0 proves a >= 1.
func Decrement(a uint64) uint64 {
	if a > 0 {
		return a - 1
	}
	return 0
}

// DecrementByTwo: a > 0 only proves a >= 1.
func DecrementByTwo(a uint64) uint64 {
	if a > 0 {
		return a - 2 // want:countersafety
	}
	return 0
}

// Mask: the 1<<k - 1 idiom never wraps when the shift is meaningful.
func Mask(k uint) uint64 {
	return 1<<k - 1
}

// FromMax: subtracting anything from the maximum cannot wrap.
func FromMax(x uint64) uint64 {
	return math.MaxUint64 - x
}

// Signed subtraction is int arithmetic, not counter arithmetic.
func Signed(n int) int {
	return n - 5
}

// NamedUnguarded: named unsigned types are counters too.
func NamedUnguarded(a, b counter) counter {
	return a - b // want:countersafety
}

// GenSub: a type-parameter counter is still unsigned.
func GenSub[T ~uint64](a, b T) T {
	return a - b // want:countersafety
}

// GenSatSub guards like noc.SatSub and passes.
func GenSatSub[T ~uint64](a, b T) T {
	if a < b {
		return 0
	}
	return a - b
}

// AddressKill: handing &a to a callee invalidates the guard.
func AddressKill(a, b uint64) uint64 {
	if a >= b {
		mutate(&a)
		return a - b // want:countersafety
	}
	return 0
}

func mutate(p *uint64) { *p = 0 }

// ClosureNoLeak: a literal's body starts with no inherited facts, and
// its own guard works as usual.
func ClosureNoLeak(a, b uint64) func() uint64 {
	if a >= b {
		return func() uint64 {
			return a - b // want:countersafety
		}
	}
	return func() uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
}

// BitmaskLoop: the canonical set-bit iteration. The loop condition
// m != 0 on an unsigned m proves m >= 1 on every iteration, so
// clearing the lowest set bit with m &= m - 1 cannot wrap. This is the
// word-parallel engines' hot idiom (masked input/output walks).
func BitmaskLoop(m uint64) int {
	n := 0
	for m != 0 {
		n++
		m &= m - 1
	}
	return n
}

// NonzeroEarlyReturn: the same fact from a refuted == 0 test.
func NonzeroEarlyReturn(m uint64) uint64 {
	if m == 0 {
		return 0
	}
	return m - 1
}

// NonzeroMirror: the zero literal on the left.
func NonzeroMirror(m uint64) uint64 {
	if 0 != m {
		return m - 1
	}
	return 0
}

// NonzeroTooWeak: m != 0 proves only m >= 1; subtracting 2 still wraps
// at m == 1.
func NonzeroTooWeak(m uint64) uint64 {
	for m != 0 {
		m = m - 2 // want:countersafety
	}
	return m
}

// NonzeroKilled: reassigning m between the test and the subtraction
// drops the fact.
func NonzeroKilled(m, x uint64) uint64 {
	if m != 0 {
		m = x
		return m - 1 // want:countersafety
	}
	return 0
}

// Narrow truncates a 64-bit counter (rule 2).
func Narrow(x uint64) uint32 {
	return uint32(x) // want:countersafety
}

// NarrowConst: constant conversions are compiler-checked.
func NarrowConst() uint32 {
	return uint32(7)
}

// Widen is fine, as is a same-width signed reinterpretation.
func Widen(x uint32) (uint64, int64) {
	return uint64(x), int64(uint64(x))
}

// OverShift: shifting a 64-bit value by 64 always yields zero (rule 3).
func OverShift(x uint64) uint64 {
	return x << 64 // want:countersafety
}

// OverShift32: the width comes from the operand's type.
func OverShift32(x uint32) uint32 {
	return x >> 32 // want:countersafety
}

// InRangeShift is fine.
func InRangeShift(x uint64) uint64 {
	return x << 63
}

// DeadCompare: an unsigned difference is never negative (rule 4).
func DeadCompare(a, b uint64) bool {
	if a < b {
		return false
	}
	return a-b < 0 // want:countersafety
}

// DeadGE: an unsigned value is always >= 0.
func DeadGE(x uint64) bool {
	return x >= 0 // want:countersafety
}

// DeadMirror: the same comparison with the zero on the left.
func DeadMirror(x uint64) bool {
	return 0 > x // want:countersafety
}

// quota carries a counter pair guarded through selectors and indexes,
// the shapes of SSVC.Tick and Collector.Window.
type quota struct {
	aux            []uint64
	quantum        uint64
	End, Warmup    uint64
	used, capacity uint64
}

// IndexGuard: a guard on an indexed minuend and a selector subtrahend.
func (s *quota) IndexGuard(i int) {
	if s.aux[i] > s.quantum {
		s.aux[i] -= s.quantum
	}
}

// IndexGuardOther: the guard covers s.aux[i], not s.aux[j].
func (s *quota) IndexGuardOther(i, j int) {
	if s.aux[i] > s.quantum {
		s.aux[j] -= s.quantum // want:countersafety
	}
}

// SelectorEarlyReturn: both operands are selectors.
func (s *quota) SelectorEarlyReturn() uint64 {
	if s.End <= s.Warmup {
		return 0
	}
	return s.End - s.Warmup
}

// EqualGuard: an equality proves the difference is exactly zero.
func EqualGuard(a, b uint64) uint64 {
	if a == b {
		return a - b
	}
	return 0
}

// bump writes its receiver.
func (s *quota) bump() { s.used++ }

// peek reads its receiver and writes nothing.
func (s *quota) peek() uint64 { return s.used }

// ReceiverKill: a pointer-receiver method that writes its receiver runs
// between the guard and the subtraction, so the guard no longer holds.
func ReceiverKill(s *quota) uint64 {
	if s.capacity >= s.used {
		s.bump()
		return s.capacity - s.used // want:countersafety
	}
	return 0
}

// ReceiverKillByValue: the same write through the implicit &q a
// pointer method takes on an addressable value.
func ReceiverKillByValue(q quota) uint64 {
	if q.capacity >= q.used {
		q.bump()
		return q.capacity - q.used // want:countersafety
	}
	return 0
}

// ReceiverReadOnly: a method whose effect summary writes nothing keeps
// the guard.
func ReceiverReadOnly(s *quota) uint64 {
	if s.capacity >= s.used {
		_ = s.peek()
		return s.capacity - s.used
	}
	return 0
}
