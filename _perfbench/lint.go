package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"swizzleqos/internal/analysis"
)

// The analysis package caches the hotpath rule's escape-analysis build
// output under os.TempDir(); the lint workload points TMPDIR at a
// directory of its own so it controls when that cache is cold.

// escapeDir returns a directory for the escape-analysis cache, emptied
// first when fresh is set.
func (r *run) escapeDir(name string, fresh bool) (string, error) {
	dir := filepath.Join(r.out, "tmp", name)
	if fresh {
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// lintPass runs ssvc-lint -strict's analysis once with TMPDIR at dir and
// checks its two outcomes: no finding and no unused allowlist entry.
func (r *run) lintPass(dir string) (time.Duration, int, bool) {
	if err := os.Setenv("TMPDIR", dir); !r.check(err == nil, "lint: %v", err) {
		return 0, 0, false
	}
	allow, err := analysis.ParseAllowlistFile(filepath.Join(r.root, "lint.allow"))
	if !r.check(err == nil, "lint: allowlist: %v", err) {
		return 0, 0, false
	}
	start := time.Now()
	diags, err := analysis.RunAll(r.root, allow)
	el := time.Since(start)
	if !r.check(err == nil, "lint: RunAll: %v", err) {
		return el, 0, false
	}
	ok := r.check(len(diags) == 0, "lint: %d finding(s): %v", len(diags), diags)
	unused := allow.Unused()
	ok = r.check(len(unused) == 0, "lint: %d unused allowlist entr(y/ies)", len(unused)) && ok
	return el, len(diags), ok
}

// lintMeasurer samples RunAll passes over a filled escape-analysis
// cache. Its set-up is a RunAll that fills a freshly emptied cache; a
// probe without set-up uses a persistent cache, filling it first if this
// checkout has not yet.
type lintMeasurer struct {
	r              *run
	dir            string
	setups, passes []float64
}

func newLintMeasurer(r *run) measurer { return &lintMeasurer{r: r} }

func (m *lintMeasurer) setup() bool {
	for i := 0; i < setupReps; i++ {
		dir, err := m.r.escapeDir(fmt.Sprintf("escape-setup-%d", i), true)
		if !m.r.check(err == nil, "lint: %v", err) {
			return false
		}
		el, _, ok := m.r.lintPass(dir)
		if !ok {
			return false
		}
		m.dir = dir
		m.setups = append(m.setups, el.Seconds())
	}
	return true
}

func (m *lintMeasurer) sample() bool {
	if m.dir == "" {
		dir, err := m.r.escapeDir("escape-probe", false)
		if !m.r.check(err == nil, "lint: %v", err) {
			return false
		}
		if entries, err := os.ReadDir(dir); err == nil && len(entries) == 0 {
			if _, _, ok := m.r.lintPass(dir); !ok {
				return false
			}
		}
		m.dir = dir
	}
	el, _, ok := m.r.lintPass(m.dir)
	if ok {
		m.passes = append(m.passes, el.Seconds())
	}
	return ok
}

func (m *lintMeasurer) report(native bool) {
	if native {
		m.r.set("setup_s", median(m.setups))
	}
	if len(m.passes) > 0 {
		m.r.set("lint_s", median(m.passes))
	}
	m.r.detail("lint.passes", len(m.passes))
}

// lintTraced alternates an untraced RunAll with a traced pass that first
// loads every module package on its own (analysis.load_s) and then runs
// RunAll; rules_s is RunAll minus the load.
func lintTraced(r *run) {
	dir, err := r.escapeDir("escape-probe", false)
	if !r.check(err == nil, "lint: %v", err) {
		return
	}
	var untraced, traced, load, rules, findings []float64
	if _, _, ok := r.lintPass(dir); !ok { // fill the escape cache
		return
	}
	for end := r.deadline(); len(traced) < 2 || time.Now().Before(end); {
		el, _, ok := r.lintPass(dir)
		if !ok {
			return
		}
		untraced = append(untraced, el.Seconds())

		pass := r.tracer.Begin("lint.pass", "")
		id := r.tracer.Begin("analysis.Load", "")
		err := loadModule(r.root)
		ld := r.tracer.End(id)
		if !r.check(err == nil, "lint: load: %v", err) {
			r.tracer.End(pass)
			return
		}
		id = r.tracer.Begin("analysis.RunAll", "")
		_, n, ok := r.lintPass(dir)
		all := r.tracer.End(id)
		r.tracer.End(pass)
		if !ok {
			return
		}
		traced = append(traced, all.Seconds())
		load = append(load, ld.Seconds())
		rules = append(rules, (all - ld).Seconds())
		findings = append(findings, float64(n))
	}
	r.set("analysis.load_s", median(load))
	r.set("analysis.rules_s", median(rules))
	r.set("analysis.findings", median(findings))
	r.set("trace_overhead_ratio", median(traced)/median(untraced))
	r.detail("lint.lint_s", median(untraced))
}

// loadModule parses and type-checks every package of the module the way
// RunAll's serial phase does.
func loadModule(root string) error {
	l, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	pkgs, err := l.ModulePackages()
	if err != nil {
		return err
	}
	for _, ip := range pkgs {
		if _, err := l.Load(ip); err != nil {
			return fmt.Errorf("%s: %w", ip, err)
		}
	}
	return nil
}
