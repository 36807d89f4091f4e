package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos/internal/analysis"
)

// repoRoot resolves the module root from the test's working directory
// (internal/analysis).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root %s has no go.mod: %v", root, err)
	}
	return root
}

func newLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wantMarkers scans the fixture packages for `// want:<analyzer>`
// trailing comments and returns the expected finding multiset keyed
// "file:line analyzer", with file module-relative.
func wantMarkers(t *testing.T, root string, rels ...string) map[string]int {
	t.Helper()
	want := map[string]int{}
	for _, rel := range rels {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for lineno := 1; sc.Scan(); lineno++ {
				line := sc.Text()
				i := strings.Index(line, "// want:")
				if i < 0 {
					continue
				}
				an := strings.TrimSpace(line[i+len("// want:"):])
				want[fmt.Sprintf("%s/%s:%d %s", rel, e.Name(), lineno, an)]++
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return want
}

func diagSet(ds []analysis.Diagnostic) map[string]int {
	got := map[string]int{}
	for _, d := range ds {
		got[fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Analyzer)]++
	}
	return got
}

// compareFindings fails the test with a readable diff when the actual
// findings don't match the fixture's want markers exactly.
func compareFindings(t *testing.T, want, got map[string]int, ds []analysis.Diagnostic) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("want %d finding(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("unexpected finding at %s (x%d)", k, n)
		}
	}
	if t.Failed() {
		for _, d := range ds {
			t.Logf("reported: %s", d)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{
		"internal/analysis/testdata/src/determbad",
		"internal/analysis/testdata/src/determclean",
	}
	ds, err := analysis.Determinism(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

func TestPanicFreezeFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/panicbad"}
	ds, err := analysis.PanicFreeze(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

func TestRecycleFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/recyclebad"}
	ds, err := analysis.Recycle(l, pkgs, analysis.RecycleSources)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestCounterSafetyFixture drives the interval engine's subtraction
// query — operand intervals plus the difference entries comparison
// edges record — through every guarded and unguarded shape in the
// fixture, plus the context-free narrowing / over-shift / dead-compare
// rules.
func TestCounterSafetyFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/countersafebad"}
	ds, err := analysis.CounterSafety(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

func TestUnitsFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/unitsbad"}
	ds, err := analysis.Units(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestHotpathFixture runs the real escape-analysis pipeline (go build
// -gcflags=-m) over the hotbad fixture.
func TestHotpathFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the compiler")
	}
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/hotbad"}
	ds, err := analysis.Hotpath(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestHotpathFuncs checks annotation scanning alone: names, ranges, and
// coldpath exclusions, without invoking the compiler.
func TestHotpathFuncs(t *testing.T) {
	l := newLoader(t)
	funcs, dirs, err := analysis.HotpathFuncs(l, []string{"internal/analysis/testdata/src/hotbad"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != "./internal/analysis/testdata/src/hotbad" {
		t.Fatalf("dirs = %v", dirs)
	}
	byName := map[string]analysis.HotFunc{}
	for _, f := range funcs {
		byName[f.Name] = f
	}
	for _, name := range []string{"Hot", "Cold", "Fine"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("annotated func %s not found (got %v)", name, funcs)
		}
	}
	if _, ok := byName["Unannotated"]; ok {
		t.Error("Unannotated has no marker but was collected")
	}
	cold := byName["Cold"]
	if len(cold.Exclude) != 1 {
		t.Fatalf("Cold exclusions = %v, want one coldpath range", cold.Exclude)
	}
	ex := cold.Exclude[0]
	if !(ex[0] > cold.Start && ex[1] <= cold.End && ex[0] < ex[1]) {
		t.Errorf("Cold exclusion %v not inside body %d-%d", ex, cold.Start, cold.End)
	}
}

// TestHotpathDiagnose feeds canned compiler output so the matching logic
// is covered without a build.
func TestHotpathDiagnose(t *testing.T) {
	funcs := []analysis.HotFunc{{
		Name:    "Step",
		File:    "internal/x/x.go",
		Start:   10,
		End:     30,
		Exclude: [][2]int{{20, 22}},
	}}
	out := []byte(strings.Join([]string{
		"internal/x/x.go:12:9: new(big) escapes to heap", // inside range: flagged
		"internal/x/x.go:21:3: moved to heap: b",         // coldpath-excluded
		"internal/x/x.go:40:9: new(big) escapes to heap", // outside range
		"internal/x/x.go:13:5: inlining call to helper",  // not a heap diag
		"internal/y/y.go:12:9: new(big) escapes to heap", // other file
		"internal/x/x.go:14:2: leaking param: p",         // not a heap diag
		"not a diagnostic line",
		"internal/x/x.go:15:7: make([]int, n) escapes to heap", // inside range: flagged
	}, "\n"))
	ds := analysis.HotpathDiagnose(funcs, out)
	got := diagSet(ds)
	want := map[string]int{
		"internal/x/x.go:12 hotpath": 1,
		"internal/x/x.go:15 hotpath": 1,
	}
	compareFindings(t, want, got, ds)
	for _, d := range ds {
		if !strings.Contains(d.Message, "Step") {
			t.Errorf("message %q does not name the annotated function", d.Message)
		}
	}
}

func TestAllowlist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lint.allow")
	content := strings.Join([]string{
		"# a full-line comment",
		"",
		"determinism internal/stats/stats.go:189  # sort-after-collect",
		"panicfreeze internal/runner/runner.go  # whole file",
		"recycle internal/mesh/mesh.go:5  # never fires",
	}, "\n")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := analysis.ParseAllowlistFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ds := []analysis.Diagnostic{
		{File: "internal/stats/stats.go", Line: 189, Analyzer: "determinism", Message: "map range"},
		{File: "internal/stats/stats.go", Line: 200, Analyzer: "determinism", Message: "wrong line"},
		{File: "internal/runner/runner.go", Line: 7, Analyzer: "panicfreeze", Message: "any line"},
		{File: "internal/runner/runner.go", Line: 7, Analyzer: "determinism", Message: "wrong analyzer"},
	}
	kept := al.Filter(ds)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %v", len(kept), kept)
	}
	if kept[0].Line != 200 || kept[1].Analyzer != "determinism" {
		t.Errorf("wrong diagnostics survived: %v", kept)
	}
	unused := al.Unused()
	if len(unused) != 1 || unused[0].Analyzer != "recycle" || unused[0].Line != 5 {
		t.Errorf("Unused() = %v, want the recycle entry", unused)
	}
}

func TestAllowlistMissingFile(t *testing.T) {
	al, err := analysis.ParseAllowlistFile(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatal(err)
	}
	ds := []analysis.Diagnostic{{File: "a.go", Line: 1, Analyzer: "recycle"}}
	if kept := al.Filter(ds); len(kept) != 1 {
		t.Errorf("empty allowlist dropped diagnostics: %v", kept)
	}
}

func TestAllowlistParseErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"extra-field": "determinism internal/a.go extra\n",
		"bad-line":    "determinism internal/a.go:seven\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := analysis.ParseAllowlistFile(path); err == nil {
			t.Errorf("%s: want parse error, got none", name)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := analysis.Diagnostic{File: "internal/a/b.go", Line: 7, Analyzer: "recycle", Message: "leaked on some path"}
	want := "internal/a/b.go:7: [recycle] leaked on some path"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortDiagnostics(t *testing.T) {
	ds := []analysis.Diagnostic{
		{File: "b.go", Line: 1, Analyzer: "recycle"},
		{File: "a.go", Line: 9, Analyzer: "hotpath"},
		{File: "a.go", Line: 2, Analyzer: "determinism"},
	}
	analysis.SortDiagnostics(ds)
	order := fmt.Sprintf("%s:%d %s:%d %s:%d", ds[0].File, ds[0].Line, ds[1].File, ds[1].Line, ds[2].File, ds[2].Line)
	if order != "a.go:2 a.go:9 b.go:1" {
		t.Errorf("sorted order %s", order)
	}
}

func TestDurabilityFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/durabilitybad"}
	ds, err := analysis.Durability(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestDurabilityMutation is the durability meta-test: the fixture
// copies the control plane's journalCmd barrier with the fsync deleted.
// The analyzer must both refuse to admit the mutated barrier (flagging
// the acknowledgement behind it) and flag the premature success return
// directly.
func TestDurabilityMutation(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/durmut"}
	ds, err := analysis.Durability(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("durability missed the reply-before-fsync mutation")
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestValueRangeFixture drives the interval engine through every
// flagged and proven shape: products, guarded and refined ranges,
// masked and unmasked shifts, float crossings, disjoint stores, and
// the widening loop.
func TestValueRangeFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/rangebad"}
	ds, err := analysis.ValueRange(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestTaintFixture drives the interprocedural taint flow through
// direct, chained, converted, and channel-hopping paths, with and
// without the laundering barrier.
func TestTaintFixture(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/taintbad"}
	ds, err := analysis.Taint(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestValueRangeMutation is the valuerange meta-test: the fixture
// copies the admission cost product with its dominating guard deleted.
// If the analyzer ever stops reporting the wrap, the check has
// silently gone blind and this test fails.
func TestValueRangeMutation(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/rangemut"}
	ds, err := analysis.ValueRange(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("valuerange missed the unguarded Frame-scaled product")
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestCounterSafetyMutation is the countersafety meta-test: the fixture
// copies the four real subtractions guarded by a comparison between two
// non-constant operands (noc.SatSub, CCSP.Tick, SSVC.Tick's auxVC
// decrement, Collector.Window) with the guard deleted. If the
// difference entries ever stop failing closed, this test fails.
func TestCounterSafetyMutation(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/countermut"}
	ds, err := analysis.CounterSafety(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("countersafety missed every unguarded pair subtraction")
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// TestTaintMutation is the taint meta-test: the fixture copies the
// parse → validate → price pipeline with the validation call deleted
// (the barrier function still exists; only its call site is gone).
func TestTaintMutation(t *testing.T) {
	l := newLoader(t)
	pkgs := []string{"internal/analysis/testdata/src/taintmut"}
	ds, err := analysis.Taint(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("taint missed the deleted validation call between parse and sink")
	}
	want := wantMarkers(t, repoRoot(t), pkgs...)
	compareFindings(t, want, diagSet(ds), ds)
}

// allowlistEntries returns the non-comment lines of lint.allow.
func allowlistEntries(t *testing.T, root string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(root, "lint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestModuleIsLintClean is the self-test: the shipped tree, filtered by
// the shipped lint.allow, must produce zero findings and leave no
// allowlist entry unused — the same check `make lint` (which runs
// ssvc-lint -strict) enforces.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and invokes the compiler")
	}
	root := repoRoot(t)
	allow, err := analysis.ParseAllowlistFile(filepath.Join(root, "lint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := analysis.RunAll(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		t.Errorf("lint finding on shipped tree: %s", d)
	}
	for _, e := range allow.Unused() {
		t.Errorf("stale allowlist entry suppresses nothing: %s %s:%d", e.Analyzer, e.File, e.Line)
	}
	// The interprocedural analyzers must hold over the real tree with
	// no suppressions at all, and the allowlist must not grow: new
	// findings are fixed at the source, not waved through.
	entries := allowlistEntries(t, root)
	const allowBudget = 7
	if len(entries) > allowBudget {
		t.Errorf("lint.allow has %d entries, budget is %d; fix findings instead of suppressing them", len(entries), allowBudget)
	}
	for _, line := range entries {
		an := strings.Fields(line)[0]
		switch an {
		case "durability", "valuerange", "taint":
			t.Errorf("lint.allow entry for %s: the interprocedural analyzers admit no suppressions (%s)", an, line)
		}
	}
}
