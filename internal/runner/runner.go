// Package runner executes independent simulation jobs across a bounded
// pool of goroutines with deterministic, ordered result collection.
//
// The paper's evaluation (§4) is a family of independent sweep points —
// injection rates in Figure 4, counter policies in Figure 5, reservation
// mixes in the adherence study — and each point builds its own
// switchsim.Switch, traffic generators, and statistics collector from a
// seed derived purely from the point's index. Because a job is a pure
// function of its index and results are stored by index, every table the
// experiment harness renders is byte-identical at any worker count; only
// wall-clock time changes.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// JobPanic is re-raised on the caller when a parallel job panics: it
// wraps the job's original panic value together with the job index and
// the stack captured at the panic site, which the re-raise on the
// calling goroutine would otherwise destroy. Recover-and-inspect code
// can type-assert for *JobPanic to get at the original value.
type JobPanic struct {
	// Index is the job index whose function panicked.
	Index int
	// Value is the original value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

// Error formats the panic with its origin and captured stack, so even an
// unrecovered crash report shows where the job died.
func (jp *JobPanic) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n\njob goroutine stack:\n%s", jp.Index, jp.Value, jp.Stack)
}

// Unwrap returns the original panic value when it was an error, letting
// errors.Is/As see through the wrapper.
func (jp *JobPanic) Unwrap() error {
	if err, ok := jp.Value.(error); ok {
		return err
	}
	return nil
}

// Pool is a bounded worker pool for independent jobs. The zero value is
// not useful; create one with New. A Pool carries no mutable state and may
// be shared and used concurrently.
type Pool struct {
	workers int
}

// New returns a pool running at most workers jobs concurrently. A value
// <= 0 selects runtime.GOMAXPROCS(0), saturating the machine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Map runs fn(i) for every i in [0, n) across the pool's workers and
// returns the results in index order. fn must not share mutable state
// across indices. A panic in any job is re-raised on the calling
// goroutine after all workers have stopped, wrapped in a *JobPanic that
// preserves the original value and the stack captured at the panic site
// (a serial run — workers <= 1 — panics natively, untouched).
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	return MapScratch(p, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// MapScratch is Map with per-worker scratch state: newScratch runs once
// per worker and its value is passed to every job that worker executes.
// It exists so hot sweep loops can recycle expensive per-run structures
// (statistics collectors, buffers) without any cross-worker sharing.
// Scratch state must be fully reset by fn between runs; results must not
// alias it.
func MapScratch[S, T any](p *Pool, n int, newScratch func() S, fn func(s S, i int) T) []T {
	if n <= 0 {
		return nil
	}
	results := make([]T, n)
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newScratch()
		for i := 0; i < n; i++ {
			results[i] = fn(s, i)
		}
		return results
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[JobPanic]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newScratch()
			for panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Each job runs under its own recover so the panic can be
				// tagged with the job index and the stack captured while
				// the panicking frames are still live; the first failing
				// job wins and is re-raised after all workers drain.
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &JobPanic{
								Index: i, Value: r, Stack: debug.Stack(),
							})
						}
					}()
					results[i] = fn(scratch, i)
				}()
			}
		}()
	}
	wg.Wait()
	if jp := panicked.Load(); jp != nil {
		panic(jp)
	}
	return results
}

// DeriveSeed returns a per-job RNG seed from a base seed and a job index,
// via a SplitMix64 round. Deriving rather than offsetting keeps sibling
// jobs' RNG streams statistically independent while remaining a pure
// function of (base, index) — the property the determinism guarantee
// rests on.
func DeriveSeed(base uint64, index int) uint64 {
	z := base + 0x9E3779B97F4A7C15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 { // seed 0 selects "default" in several generators
		z = 0x9E3779B97F4A7C15
	}
	return z
}
