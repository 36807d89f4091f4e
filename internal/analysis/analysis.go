// Package analysis is the repository's in-tree invariant linter
// (cmd/ssvc-lint). It enforces at the source level nine load-bearing
// guarantees the simulator's results rest on, which are otherwise only
// checked at runtime by goldens and benchmarks (DESIGN.md "Invariants"
// documents each; rules.go names the packages each covers):
//
//   - determinism: packages that feed golden tables must not consult
//     wall-clock time, the global math/rand source, or iterate maps in
//     an order-dependent way — byte-identical output at any worker
//     count is the repository's reproducibility contract.
//   - hotpath: functions annotated //ssvc:hotpath (the engines'
//     per-cycle loops and the arbiters) must be allocation-free,
//     cross-checked against the compiler's own escape analysis
//     (go build -gcflags=-m).
//   - recycle: values taken from transmission/packet free lists
//     (fabric.TxPool) must reach a recycle sink on every path, so a
//     leaked struct cannot silently re-introduce steady-state
//     allocation.
//   - panicfreeze: engine, fabric, and experiment code must not
//     panic — invariant violations freeze the engine sick through
//     fabric.ErrorReporter and surface as Outcome.Err.
//   - countersafety: unsigned counters must not wrap or truncate —
//     every unsigned subtraction is proven non-negative on the
//     interval engine, plus narrowing, over-shift and wrap-dead
//     comparison checks.
//   - units: noc.Cycle and noc.VTime cross domains only through the
//     named helpers in internal/noc.
//   - durability: the control plane acknowledges a command only after
//     its journal record is appended and fsynced, on every path.
//   - valuerange: arithmetic over //ssvc:range-declared inputs is
//     proven wrap- and truncation-free on the interval engine.
//   - taint: untrusted input crosses an //ssvc:barrier validator
//     before it reaches //ssvc:sink arithmetic.
//
// The package is stdlib-only (go/parser + go/types with the source
// importer); the module has no dependencies and the build environment
// has no network, so golang.org/x/tools is deliberately off the table.
// Justified exceptions live in the lint.allow file at the module root.
package analysis

import (
	"fmt"
	"sort"
)

// Diagnostic is one finding. File is slash-separated and relative to
// the module root so rendered diagnostics are stable across machines.
type Diagnostic struct {
	File     string
	Line     int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the tool's one-line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// SortDiagnostics orders findings by file, line, analyzer, message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// MethodRule names a method by receiver type name, e.g. {TxPool, Get}.
// The package path is intentionally not part of the rule so fixture
// packages can declare their own pool types; within this module the
// type names are unique.
type MethodRule struct {
	TypeName string
	Method   string
}

func (r MethodRule) String() string { return r.TypeName + "." + r.Method }
