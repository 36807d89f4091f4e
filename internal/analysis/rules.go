package analysis

// This file is the single place naming which packages each invariant
// covers. Paths are module-relative. DESIGN.md ("Invariants") documents
// the rules themselves; lint.allow at the module root carries the
// justified exceptions.

// DeterminismPackages feed golden tables (directly, or as the kernels
// and generators under them). Byte-identical output at any worker count
// is the reproducibility contract, so these may not read wall-clock
// time, the global math/rand source, or iterate maps without imposing
// an order.
var DeterminismPackages = []string{
	"internal/switchsim",
	"internal/mesh",
	"internal/compose",
	"internal/core",
	"internal/experiments",
	"internal/fabric",
	"internal/faults",
	"internal/traffic",
	"internal/stats",
	// The control plane journals commands with simulated-cycle stamps
	// and replays them bit-for-bit; wall-clock time anywhere in its
	// lease-expiry or snapshot paths (time.Now, but also timers like
	// time.Sleep/After) would make recovery diverge from the live run.
	"internal/ctlplane",
}

// PanicFreezePackages must freeze sick through fabric.ErrorReporter /
// Outcome.Err instead of panicking: the engines and everything between
// them and a rendered table. Constructor preconditions in leaf
// packages (arb, traffic, core, circuit) stay panics by API contract
// and are not in this set; the stats constructors and the runner's
// worker-panic re-raise are in the set but allowlisted.
var PanicFreezePackages = []string{
	"internal/fabric",
	"internal/switchsim",
	"internal/mesh",
	"internal/compose",
	"internal/experiments",
	"internal/faults",
	"internal/stats",
	"internal/runner",
}

// RecyclePackages are where pool values are obtained and must flow back
// to a sink; RecycleSources names the pool methods that hand them out.
var RecyclePackages = []string{
	"internal/switchsim",
	"internal/mesh",
	"internal/compose",
	"internal/fabric",
}

// RecycleSources lists the free-list take methods tracked by the
// recycle analyzer.
var RecycleSources = []MethodRule{
	{TypeName: "TxPool", Method: "Get"},
}

// DurabilityPackages carry the crash-safety ordering contract: the
// control plane (journal before acknowledgement, single-owner lease
// heap) and the daemon that spawns goroutines around it.
var DurabilityPackages = []string{
	"internal/ctlplane",
	"cmd/ssvc-serve",
}

// ValueRangePackages carry the declared-critical integer arithmetic
// the interval engine proves overflow-safe (DESIGN.md invariant 8):
// the admission budget's Frame-scaled cost products, the Eq 1-3
// schedulability terms, and the datapath shift/mask kernels. Input
// contracts live on their config structs as //ssvc:range annotations.
var ValueRangePackages = []string{
	"internal/ctlplane",
	"internal/glbound",
	"internal/core",
	"internal/arb",
}

// TaintPackages are where untrusted input enters (the TCP line
// protocol, the on-disk journal) and where it is consumed by the
// fixed-point arithmetic; the taint analyzer requires a
// //ssvc:barrier validation on every path from the first to the
// second (DESIGN.md invariant 9).
var TaintPackages = []string{
	"internal/ctlplane",
	"cmd/ssvc-serve",
}

// HotpathPackages are scanned for //ssvc:hotpath annotations. The
// whole module is eligible; this list just avoids scanning fixture
// trees (the loader skips testdata on its own).
func HotpathPackages(l *Loader) ([]string, error) {
	return modulePackageRels(l)
}

// CounterSafetyPackages is the whole module: unsigned-counter wrap,
// narrowing, and over-shift are hazards wherever counters flow, and
// the saturating helpers in internal/noc pass the analyzer on their
// own merits (their bodies carry the guards it looks for).
func CounterSafetyPackages(l *Loader) ([]string, error) {
	return modulePackageRels(l)
}

// UnitsPackages is the whole module except internal/noc, the one place
// allowed to convert between the Cycle/VTime unit types and raw
// integers (it defines the conversion helpers).
func UnitsPackages(l *Loader) ([]string, error) {
	rels, err := modulePackageRels(l)
	if err != nil {
		return nil, err
	}
	out := rels[:0]
	for _, rel := range rels {
		if rel != "internal/noc" {
			out = append(out, rel)
		}
	}
	return out, nil
}

// modulePackageRels lists every package directory of the module as a
// module-relative path ("" for the root package).
func modulePackageRels(l *Loader) ([]string, error) {
	ips, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	rels := make([]string, 0, len(ips))
	for _, ip := range ips {
		rel := ""
		if ip != l.Module {
			rel = ip[len(l.Module)+1:]
		}
		rels = append(rels, rel)
	}
	return rels, nil
}
