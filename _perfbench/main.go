// Command perfbench is the repository benchmark: four workloads that
// each load one part of the reproduction heavily, a correctness oracle
// per workload, end-to-end metrics measured with tracing off, and a
// separate traced pass that splits host time across the modules.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench -root DIR -out DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// every end-to-end metric: for --seconds seconds the workload named by
// --workload is sampled, interleaved with smaller probes of the other
// workloads so that every end-to-end metric has a value. With
// --trace 1 the metrics are every per-layer metric, from timing shims
// around the workload's calls into each layer; metrics of layers the
// workload does not touch read 0. A full record (host stamp, details,
// spans) is written under -out. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is ssvc-bench's default -seed; recorded digests hold at it.
const defaultSeed = 1

// setupReps is how many times a workload sets up in one run; setup_s is
// the median.
const setupReps = 3

// workload is one named benchmark input; BENCHMARK.json records why
// each exists.
type workload struct {
	name string
	// measure returns the workload's end-to-end measurement state.
	measure func(r *run) measurer
	// minSamples is how many samples a run takes at least, whether the
	// workload is the run's own or a probe.
	minSamples int
	// traced runs the workload with timing shims and sets its
	// per-layer metrics, trace_overhead_ratio included.
	traced func(r *run)
}

// measurer takes a workload's end-to-end samples one at a time, so that
// a run can interleave its own workload with probes of the others.
type measurer interface {
	// setup sets the workload up setupReps times, timing each, where
	// set-up is separate from a sample. It reports whether to go on.
	setup() bool
	// sample takes one sample — a suite pass, a crossbar round, a churn
	// round or a lint pass — and reports whether to go on.
	sample() bool
	// report sets the workload's end-to-end metrics, setup_s only for
	// the run's own workload.
	report(native bool)
}

var workloads = []workload{
	{name: "paper-suite", measure: newSuiteMeasurer, minSamples: 3, traced: suiteTraced},
	{name: "xbar64-sat", measure: newXbarMeasurer, minSamples: 3, traced: xbarTraced},
	{name: "ctlplane-churn", measure: newChurnMeasurer, minSamples: 2, traced: churnTraced},
	{name: "lint", measure: newLintMeasurer, minSamples: 1, traced: lintTraced},
}

// nativeShare is the part of a run's measuring time its own workload
// gets; the probes of the other workloads share the rest equally.
const nativeShare = 0.5

// run is the state of one benchmark invocation.
type run struct {
	root     string // repository root
	out      string // directory for journals, caches and records
	seed     uint64
	seconds  time.Duration
	workers  int // goroutines a workload may use (nproc)
	overhead int64
	tracer   *Tracer

	attempted, failed int
	metrics           map[string]float64
	details           map[string]any
	problems          []string
}

// check counts one operation and records a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records a failed operation.
func (r *run) fail(format string, args ...any) { r.check(false, format, args...) }

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// detail records a value for the written record (not a metric).
func (r *run) detail(name string, v any) { r.details[name] = v }

// deadline returns when a measuring loop that starts now should stop.
func (r *run) deadline() time.Time { return time.Now().Add(r.seconds) }

// Host stamps a result with the machine and source it came from.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root     = fs.String("root", ".", "repository root")
		out      = fs.String("out", ".bench_build/perfbench", "directory for journals, caches and records")
		name     = fs.String("workload", "", "workload to run")
		seed     = fs.Uint64("seed", defaultSeed, "input seed")
		seconds  = fs.Int("seconds", 10, "seconds to measure")
		traceArg = fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err == nil {
		_, err = os.Stat(filepath.Join(rootAbs, "go.mod"))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: -root must be the repository root:", err)
		return 2
	}
	outAbs, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outAbs, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	r := &run{
		root:     rootAbs,
		out:      outAbs,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		workers:  runtime.NumCPU(),
		overhead: ClockOverhead(),
		metrics:  map[string]float64{},
		details:  map[string]any{},
	}
	r.detail("clock_overhead_ns", r.overhead)
	host := hostStamp(rootAbs, *seed, w.name, *traceArg == 1, *seconds)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	catalogue := endToEnd
	if *traceArg == 1 {
		catalogue = perLayer
		r.tracer = NewTracer()
		w.traced(r)
		for _, m := range perLayer {
			if _, ok := r.metrics[m.Name]; !ok {
				r.metrics[m.Name] = 0 // layer bypassed by this workload
			}
		}
	} else {
		measureAll(r, w)
	}

	metrics := map[string]metricValue{}
	for _, m := range catalogue {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (*traceArg == 0 && v <= 0) {
			r.fail("metric %s not measured (got %v)", m.Name, v)
			v = 0
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if r.attempted == 0 {
		r.fail("no operation attempted")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	printDetails(stdout, r.details)
	if err := writeRecord(r, host, res, w.name, *traceArg); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measureAll sets up the run's own workload, takes its first sample and
// reads the peak RSS, then samples until the deadline: each time the
// workload furthest below its share of the measuring time, so the own
// workload and every probe are sampled across the whole run. Workloads
// below minSamples are topped up after the deadline.
func measureAll(r *run, own *workload) {
	n := len(workloads)
	ms := make([]measurer, n)
	spent := make([]time.Duration, n)
	count := make([]int, n)
	live := make([]bool, n)
	share := make([]float64, n)
	for i := range workloads {
		ms[i], live[i], share[i] = workloads[i].measure(r), true, (1-nativeShare)/float64(n-1)
		if &workloads[i] == own {
			share[i] = nativeShare
		}
	}
	take := func(i int) {
		start := time.Now()
		live[i] = ms[i].sample()
		spent[i] += time.Since(start)
		count[i]++
	}
	for i := range workloads {
		if &workloads[i] == own {
			if live[i] = ms[i].setup(); live[i] {
				take(i)
			}
		}
	}
	r.set("max_rss_mb", maxRSSMB())
	for end := r.deadline(); time.Now().Before(end); {
		next := -1
		for i := range workloads {
			if live[i] && (next < 0 || spent[i].Seconds()/share[i] < spent[next].Seconds()/share[next]) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		take(next)
	}
	for i := range workloads {
		for live[i] && count[i] < workloads[i].minSamples {
			take(i)
		}
		ms[i].report(&workloads[i] == own)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printDetails prints the run's non-metric details (sample counts,
// digests, medians' bases), one per line, sorted by name.
func printDetails(w io.Writer, details map[string]any) {
	keys := make([]string, 0, len(details))
	for k := range details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(details[k])
		fmt.Fprintf(w, "detail %s = %s\n", k, b)
	}
}

// writeRecord writes the run's full record — host stamp, result,
// details, and for a traced run every span and hot-call counter with
// its self time — to <out>/records/.
func writeRecord(r *run, host Host, res result, name string, trace int) error {
	dir := filepath.Join(r.out, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"host":      host,
		"result":    res,
		"details":   r.details,
		"problems":  r.problems,
		"catalogue": map[string]any{"end_to_end": endToEnd, "per_layer": perLayer},
	}
	if r.tracer != nil {
		spans, counters := r.tracer.Spans(), r.tracer.Counters()
		rec["spans"] = spans
		rec["counters"] = counters
		rec["self_ns"] = SelfTimes(spans, counters)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, r.seed, trace))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxRSSMB returns the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostStamp describes the machine, toolchain and source tree.
func hostStamp(root string, seed uint64, name string, trace bool, seconds int) Host {
	return Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
		Tree:       treeDigest(root),
		Seed:       seed,
		Workload:   name,
		Trace:      trace,
		Seconds:    seconds,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns HEAD when root is itself a git checkout, else "none"
// (an exported tree carries no history; Tree identifies it instead).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes the module's Go sources, go.mod and lint.allow —
// everything the workloads build from — skipping hidden and
// underscore-prefixed directories (the benchmark itself, build output).
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "lint.allow" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
