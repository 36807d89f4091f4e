// Command ssvc-lint enforces the repository's nine simulator invariants
// at the source level: determinism of everything feeding golden tables,
// allocation-freedom of //ssvc:hotpath functions (cross-checked against
// go build -gcflags=-m), free-list recycle discipline,
// freeze-sick-instead-of-panic error handling, counter-safety of
// unsigned arithmetic (subtractions proven non-negative on the interval
// engine, plus narrowing, over-shift, and wrap-dead comparisons), the
// noc.Cycle/noc.VTime time-unit discipline, durability ordering of
// journal fsync before acknowledgement, value-range safety of
// //ssvc:range-declared arithmetic, and taint barriers between
// untrusted input and //ssvc:sink arithmetic. See internal/analysis and
// the "Invariants" section of DESIGN.md.
//
// Usage:
//
//	ssvc-lint [-root dir] [-allow file] [-strict] [-json] [packages]
//
// The package argument is accepted for familiarity (`ssvc-lint ./...`)
// but the tool always analyzes the rule-defined package sets of the
// enclosing module. It prints one `file:line: [analyzer] message` per
// finding and exits 1 if any survive the allowlist. -json switches the
// findings stream to a JSON array of {file,line,analyzer,message}
// objects (exit codes unchanged) for editor and CI integration; the
// plain format is matched by .github/problem-matchers/ssvc-lint.json.
// Allowlist entries that suppressed nothing are warnings by default;
// -strict (the CI mode) makes them failures, so lint.allow cannot rot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"swizzleqos/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssvc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	allowPath := fs.String("allow", "", "allowlist file (default: <root>/lint.allow)")
	strict := fs.Bool("strict", false, "treat unused allowlist entries as failures")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintln(stderr, "ssvc-lint:", err)
			return 2
		}
		*root = r
	}
	if *allowPath == "" {
		*allowPath = filepath.Join(*root, "lint.allow")
	}
	allow, err := analysis.ParseAllowlistFile(*allowPath)
	if err != nil {
		fmt.Fprintln(stderr, "ssvc-lint:", err)
		return 2
	}
	diags, err := analysis.RunAll(*root, allow)
	if err != nil {
		fmt.Fprintln(stderr, "ssvc-lint:", err)
		return 2
	}
	unused := allow.Unused()
	for _, e := range unused {
		kind := "warning"
		if *strict {
			kind = "error"
		}
		loc := e.File
		if e.Line > 0 {
			loc = fmt.Sprintf("%s:%d", e.File, e.Line)
		}
		fmt.Fprintf(stderr, "ssvc-lint: %s: unused allowlist entry: %s %s\n", kind, e.Analyzer, loc)
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "ssvc-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "ssvc-lint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	if *strict && len(unused) > 0 {
		fmt.Fprintf(stderr, "ssvc-lint: %d stale allowlist entr(y/ies) under -strict\n", len(unused))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable shape of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as a single indented JSON array. An
// empty run prints `[]` so consumers never special-case the clean exit.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{File: d.File, Line: d.Line, Analyzer: d.Analyzer, Message: d.Message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// findRoot walks upward from the working directory to the nearest
// go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
