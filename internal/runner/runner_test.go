package runner

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		p := New(workers)
		got := Map(p, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	var counts [257]atomic.Int64
	p := New(8)
	Map(p, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(4)
	if got := Map(p, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	if got := Map(p, 1, func(i int) int { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=1: got %v, want [42]", got)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must select at least one worker")
	}
	if New(-3).Workers() < 1 {
		t.Fatal("New(-3) must select at least one worker")
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("New(7).Workers() = %d, want 7", got)
	}
}

// TestMapScratchIsolation checks that scratch state is created at most
// once per worker and never shared across workers mid-flight.
func TestMapScratchIsolation(t *testing.T) {
	type scratch struct {
		id   int64
		busy atomic.Bool
	}
	var created atomic.Int64
	const workers, jobs = 4, 200
	p := New(workers)
	MapScratch(p, jobs, func() *scratch {
		return &scratch{id: created.Add(1)}
	}, func(s *scratch, i int) struct{} {
		if !s.busy.CompareAndSwap(false, true) {
			t.Error("scratch used by two jobs concurrently")
		}
		s.busy.Store(false)
		return struct{}{}
	})
	if c := created.Load(); c < 1 || c > workers {
		t.Fatalf("created %d scratch values, want 1..%d", c, workers)
	}
}

// TestMapPanicPropagates pins the panic contract: a serial run panics
// natively with the original value, while a parallel run re-raises a
// *JobPanic preserving the value, the job index, and the stack captured
// at the panic site (so sweep-point failures stay debuggable).
func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers <= 1 {
					if r != "boom" {
						t.Fatalf("workers=%d: serial panic value = %v, want the original \"boom\"", workers, r)
					}
					return
				}
				jp, ok := r.(*JobPanic)
				if !ok {
					t.Fatalf("workers=%d: panic value is %T, want *JobPanic", workers, r)
				}
				if jp.Value != "boom" {
					t.Fatalf("workers=%d: JobPanic.Value = %v, want \"boom\"", workers, jp.Value)
				}
				if jp.Index != 7 {
					t.Fatalf("workers=%d: JobPanic.Index = %d, want 7", workers, jp.Index)
				}
				if !strings.Contains(string(jp.Stack), "TestMapPanicPropagates") {
					t.Fatalf("workers=%d: captured stack does not reach the panic site:\n%s", workers, jp.Stack)
				}
				if msg := jp.Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, "job 7") {
					t.Fatalf("workers=%d: Error() = %q misses value or index", workers, msg)
				}
			}()
			Map(p, 16, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

// TestJobPanicUnwrap checks errors.As sees through JobPanic to an error
// panic value.
func TestJobPanicUnwrap(t *testing.T) {
	cause := errors.New("cause")
	p := New(2)
	defer func() {
		r := recover()
		jp, ok := r.(*JobPanic)
		if !ok {
			t.Fatalf("panic value is %T, want *JobPanic", r)
		}
		if !errors.Is(jp, cause) {
			t.Fatalf("errors.Is(%v, cause) = false, want true", jp)
		}
	}()
	Map(p, 8, func(i int) int {
		if i == 3 {
			panic(cause)
		}
		return i
	})
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision: indices %d and %d", j, i)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}

// TestMapConcurrentStress is the -race smoke test: many pools running
// overlapping Maps from concurrent goroutines, with jobs that hammer the
// shared result slice from every worker.
func TestMapConcurrentStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := New(8)
			for rep := 0; rep < 5; rep++ {
				sum := 0
				for _, v := range Map(p, 64, func(i int) int { return g*1000 + i }) {
					sum += v
				}
				want := 64*g*1000 + 63*64/2
				if sum != want {
					t.Errorf("goroutine %d rep %d: sum %d, want %d", g, rep, sum, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
