// Command ssvc-bench regenerates every table and figure of the paper's
// evaluation section (§4) plus the repository's ablations, printing each
// as a fixed-width table.
//
// Usage:
//
//	ssvc-bench [-exp all|fig4a|fig4b|fig5|adherence|table1|table2|area|lanes|energy|glbound|glbursts|chaining|fixedpriority|static|sigbits|motivation|scale64|convergence|decoupling|gsf|compose|pvc|faults|idleskip|ctlplane]
//	           [-faults] [-quick] [-csv] [-cycles N] [-warmup N] [-seed N] [-workers N]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -faults is shorthand for the fault-injection experiment: alone it runs
// just that experiment; combined with -exp it adds faults to the
// selection.
//
// Independent sweep points within an experiment run on -workers
// goroutines (default: GOMAXPROCS); each simulation itself is one serial
// cycle loop. The tables are byte-identical at any worker count.
// -cpuprofile and -memprofile write pprof profiles of the whole run for
// `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"swizzleqos/internal/experiments"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain is the testable entry point.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssvc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment to run (comma separated), or 'all'")
		faultsOnly = fs.Bool("faults", false, "run the fault-injection experiment (adds to -exp if both are given)")
		quick      = fs.Bool("quick", false, "use short runs (lower accuracy)")
		asCSV      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		cycles     = fs.Uint64("cycles", 0, "override measurement cycles")
		warmup     = fs.Uint64("warmup", 0, "override warmup cycles")
		seed       = fs.Uint64("seed", 1, "workload RNG seed")

		workers    = fs.Int("workers", 0, "sweep-point goroutines (0 = GOMAXPROCS, 1 = serial)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ssvc-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ssvc-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Open up front so a bad path fails before hours of simulation.
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ssvc-bench:", err)
			return 1
		}
		defer func() {
			defer f.Close()
			runtime.GC() // flush final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "ssvc-bench:", err)
			}
		}()
	}

	o := experiments.Full()
	if *quick {
		o = experiments.Quick()
	}
	if *cycles != 0 {
		o.Cycles = noc.CycleOf(*cycles)
	}
	if *warmup != 0 {
		o.Warmup = noc.CycleOf(*warmup)
	}
	o.Seed = *seed
	o.Workers = *workers

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	if *faultsOnly {
		expSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				expSet = true
			}
		})
		if !expSet {
			delete(selected, "all")
		}
		selected["faults"] = true
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }
	ran := 0
	renderErr := error(nil)
	show := func(t *stats.Table) {
		ran++
		render := t.Render
		if *asCSV {
			render = t.RenderCSV
		}
		if err := render(stdout); err != nil && renderErr == nil {
			renderErr = err
		}
		fmt.Fprintln(stdout)
	}

	if want("fig4a") {
		show(experiments.Fig4(false, o).Table())
	}
	if want("fig4b") {
		show(experiments.Fig4(true, o).Table())
	}
	if want("fig5") {
		res := experiments.Fig5(o)
		show(res.Table())
		for _, p := range experiments.Fig5Policies {
			fmt.Fprintf(stdout, "  %-18s latency spread (max/min) = %.2f, 1%%-allocation latency = %.1f\n",
				p, res.LatencySpread(p), res.LowAllocationLatency(p))
		}
		fmt.Fprintln(stdout)
	}
	if want("adherence") {
		res := experiments.Adherence(20, o)
		show(res.Table())
		fmt.Fprintf(stdout, "  worst accepted/reserved across %d combos: %.3f (failures below 98%%: %d)\n\n",
			len(res.Combos), res.WorstRatio, res.Failures)
	}
	if want("table1") {
		show(experiments.Table1())
	}
	if want("table2") {
		show(experiments.Table2())
	}
	if want("area") {
		show(experiments.AreaTable())
	}
	if want("energy") {
		show(experiments.EnergyTable())
	}
	if want("lanes") {
		show(experiments.LanesTable())
	}
	if want("glbursts") {
		res := experiments.GLBursts(o)
		show(res.Table())
		fmt.Fprintf(stdout, "  all burst budgets hold: %v\n\n", res.AllHold())
	}
	if want("glbound") {
		res := experiments.GLBound(o)
		show(res.Table())
		fmt.Fprintf(stdout, "  bound holds in all scenarios: %v (tightness %.2f)\n\n", res.AllHold(), res.Tightness())
	}
	if want("chaining") {
		show(experiments.ChainingTable(experiments.AblationChaining(o)))
	}
	if want("fixedpriority") {
		show(experiments.FixedPriorityTable(experiments.AblationFixedPriority(o)))
	}
	if want("static") {
		show(experiments.StaticTable(experiments.AblationStaticSchedulers(o)))
	}
	if want("sigbits") {
		show(experiments.SigBitsTable(experiments.AblationSigBits(o)))
	}
	if want("gsf") {
		show(experiments.GSFTable(experiments.AblationGSF(o)))
	}
	if want("decoupling") {
		show(experiments.DecouplingTable(experiments.AblationDecoupling(o)))
	}
	if want("convergence") {
		show(experiments.ConvergenceTable(experiments.Convergence(o)))
	}
	if want("scale64") {
		show(experiments.Scale64(o).Table())
	}
	if want("pvc") {
		show(experiments.PVCTable(experiments.AblationPVC(o)))
	}
	if want("compose") {
		show(experiments.ComposeTable(experiments.ComposeQoS(o)))
	}
	if want("motivation") {
		show(experiments.MotivationTable(experiments.Motivation(o)))
	}
	if want("idleskip") {
		show(experiments.IdleSkipTable(experiments.IdleSkip(o)))
	}
	if want("ctlplane") {
		show(experiments.CtlPlaneTable(experiments.CtlPlane(o)))
	}
	if want("faults") {
		show(experiments.FaultsTable(experiments.Faults(o)))
		sf, su, fa, se := experiments.FaultSchedule(o)
		fmt.Fprintf(stdout, "  schedule: output 0 stalled [%d,%d), input 1 fail-stops at cycle %d, settle window ends at %d\n\n",
			sf, su, fa, se)
	}
	if renderErr != nil {
		fmt.Fprintln(stderr, "ssvc-bench:", renderErr)
		return 1
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "ssvc-bench: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	return 0
}
