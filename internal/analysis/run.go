package analysis

import (
	"runtime"
	"sync"
)

// RunAll executes the nine analyzers over the module rooted at root
// with the repository's default rules, filters the result through the
// allowlist (nil for none), and returns the surviving diagnostics
// sorted. This is the single entry point shared by cmd/ssvc-lint and
// the package's self-test, so "the tool passes" and "the test passes"
// can never drift apart.
//
// Execution is parallel: hotpath (parse-only plus an external
// `go build`) runs on its own goroutine with its own Loader from the
// start; the main Loader serially type-checks every module package
// once (the Loader is not safe for concurrent use) and builds the one
// call graph that countersafety and the three interprocedural
// analyzers share; then the per-package analyzers fan out
// package-by-package on a worker pool alongside the whole-tree ones
// (countersafety, durability, valuerange, taint). Results are reassembled in a fixed
// task order and sorted, so the output is byte-identical to the
// serial runner's.
func RunAll(root string, allow *Allowlist) ([]Diagnostic, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}

	// Hotpath overlaps with the type-checking below: it only parses,
	// and most of its time is the external escape-analysis build.
	type hotResult struct {
		diags []Diagnostic
		err   error
	}
	hotCh := make(chan hotResult, 1)
	go func() {
		hl, err := NewLoader(root)
		if err != nil {
			hotCh <- hotResult{err: err}
			return
		}
		hot, err := HotpathPackages(hl)
		if err != nil {
			hotCh <- hotResult{err: err}
			return
		}
		d, err := Hotpath(hl, hot)
		hotCh <- hotResult{diags: d, err: err}
	}()

	// Serial phase: type-check everything once, build the shared call
	// graph. After this the Loader's caches are read-only.
	allRels, err := modulePackageRels(l)
	if err != nil {
		return nil, err
	}
	byRel := map[string]*Package{}
	for _, rel := range allRels {
		ip := l.Module
		if rel != "" && rel != "." {
			ip = l.Module + "/" + rel
		}
		pkg, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		byRel[rel] = pkg
	}
	cg := buildCallGraph(l)

	pkgsOf := func(rels []string) []*Package {
		out := make([]*Package, 0, len(rels))
		for _, rel := range rels {
			if pkg := byRel[rel]; pkg != nil {
				out = append(out, pkg)
			}
		}
		return out
	}

	// Parallel phase: one task per (analyzer, package) for the local
	// analyzers, one per whole-tree analyzer. Task index fixes the
	// pre-sort concatenation order, keeping the run deterministic
	// regardless of scheduling.
	type task func() ([]Diagnostic, error)
	var tasks []task
	perPackage := func(rels []string, run func(rel string) ([]Diagnostic, error)) {
		for _, rel := range rels {
			rel := rel
			tasks = append(tasks, func() ([]Diagnostic, error) { return run(rel) })
		}
	}
	perPackage(DeterminismPackages, func(rel string) ([]Diagnostic, error) {
		return Determinism(l, []string{rel})
	})
	perPackage(PanicFreezePackages, func(rel string) ([]Diagnostic, error) {
		return PanicFreeze(l, []string{rel})
	})
	perPackage(RecyclePackages, func(rel string) ([]Diagnostic, error) {
		return Recycle(l, []string{rel}, RecycleSources)
	})
	units, err := UnitsPackages(l)
	if err != nil {
		return nil, err
	}
	perPackage(units, func(rel string) ([]Diagnostic, error) {
		return Units(l, []string{rel})
	})
	tasks = append(tasks,
		func() ([]Diagnostic, error) { return counterSafetyWithCG(l, cg, pkgsOf(allRels)), nil },
		func() ([]Diagnostic, error) { return durabilityWithCG(l, cg, pkgsOf(DurabilityPackages)) },
		func() ([]Diagnostic, error) { return valueRangeWithCG(l, cg, pkgsOf(ValueRangePackages)) },
		func() ([]Diagnostic, error) { return taintWithCG(l, cg, pkgsOf(TaintPackages)) },
	)

	results := make([][]Diagnostic, len(tasks))
	errs := make([]error, len(tasks))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := min(runtime.NumCPU(), 8)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i], errs[i] = tasks[i]()
			}
		}()
	}
	for i := range tasks {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	var diags []Diagnostic
	for i, d := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, d...)
	}
	hot := <-hotCh
	if hot.err != nil {
		return nil, hot.err
	}
	diags = append(diags, hot.diags...)

	diags = allow.Filter(diags)
	SortDiagnostics(diags)
	return diags, nil
}
