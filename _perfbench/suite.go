package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"time"

	"swizzleqos/internal/experiments"
	"swizzleqos/internal/stats"
)

// suiteDigestDefault is the SHA-256 of the paper-suite output at the
// default seed: byte for byte what `ssvc-bench -quick` prints.
const suiteDigestDefault = "54a341edd95d7efac07be45b9bf0805e1e56501b0f0502f6a9bc6130ddfa3533"

// experimentRun computes one experiment, renders its table(s) and notes
// to w exactly as ssvc-bench does, and returns the computed result so
// its Err fields can be inspected.
type experimentRun func(o experiments.Options, w io.Writer) (any, error)

// show renders one table followed by a blank line, as ssvc-bench does.
func show(w io.Writer, t *stats.Table) error {
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// table adapts an experiment whose result renders through one table
// function.
func table[T any](compute func(experiments.Options) T, render func(T) *stats.Table) experimentRun {
	return func(o experiments.Options, w io.Writer) (any, error) {
		res := compute(o)
		return res, show(w, render(res))
	}
}

// static adapts a table computed from the hardware model alone.
func static(render func() *stats.Table) experimentRun {
	return func(_ experiments.Options, w io.Writer) (any, error) { return nil, show(w, render()) }
}

// suiteRuns mirrors ssvc-bench's `-exp all` sequence, in its order and
// with its extra summary lines.
var suiteRuns = map[string]experimentRun{
	"fig4a": table(func(o experiments.Options) experiments.Fig4Result { return experiments.Fig4(false, o) },
		experiments.Fig4Result.Table),
	"fig4b": table(func(o experiments.Options) experiments.Fig4Result { return experiments.Fig4(true, o) },
		experiments.Fig4Result.Table),
	"fig5": func(o experiments.Options, w io.Writer) (any, error) {
		res := experiments.Fig5(o)
		if err := show(w, res.Table()); err != nil {
			return res, err
		}
		for _, p := range experiments.Fig5Policies {
			fmt.Fprintf(w, "  %-18s latency spread (max/min) = %.2f, 1%%-allocation latency = %.1f\n",
				p, res.LatencySpread(p), res.LowAllocationLatency(p))
		}
		_, err := fmt.Fprintln(w)
		return res, err
	},
	"adherence": func(o experiments.Options, w io.Writer) (any, error) {
		res := experiments.Adherence(20, o)
		if err := show(w, res.Table()); err != nil {
			return res, err
		}
		_, err := fmt.Fprintf(w, "  worst accepted/reserved across %d combos: %.3f (failures below 98%%: %d)\n\n",
			len(res.Combos), res.WorstRatio, res.Failures)
		return res, err
	},
	"table1": static(experiments.Table1),
	"table2": static(experiments.Table2),
	"area":   static(experiments.AreaTable),
	"energy": static(experiments.EnergyTable),
	"lanes":  static(experiments.LanesTable),
	"glbursts": func(o experiments.Options, w io.Writer) (any, error) {
		res := experiments.GLBursts(o)
		if err := show(w, res.Table()); err != nil {
			return res, err
		}
		_, err := fmt.Fprintf(w, "  all burst budgets hold: %v\n\n", res.AllHold())
		return res, err
	},
	"glbound": func(o experiments.Options, w io.Writer) (any, error) {
		res := experiments.GLBound(o)
		if err := show(w, res.Table()); err != nil {
			return res, err
		}
		_, err := fmt.Fprintf(w, "  bound holds in all scenarios: %v (tightness %.2f)\n\n", res.AllHold(), res.Tightness())
		return res, err
	},
	"chaining":      table(experiments.AblationChaining, experiments.ChainingTable),
	"fixedpriority": table(experiments.AblationFixedPriority, experiments.FixedPriorityTable),
	"static":        table(experiments.AblationStaticSchedulers, experiments.StaticTable),
	"sigbits":       table(experiments.AblationSigBits, experiments.SigBitsTable),
	"gsf":           table(experiments.AblationGSF, experiments.GSFTable),
	"decoupling":    table(experiments.AblationDecoupling, experiments.DecouplingTable),
	"convergence":   table(experiments.Convergence, experiments.ConvergenceTable),
	"scale64":       table(experiments.Scale64, experiments.ScaleResult.Table),
	"pvc":           table(experiments.AblationPVC, experiments.PVCTable),
	"compose":       table(experiments.ComposeQoS, experiments.ComposeTable),
	"motivation":    table(experiments.Motivation, experiments.MotivationTable),
	"idleskip":      table(experiments.IdleSkip, experiments.IdleSkipTable),
	"ctlplane":      table(experiments.CtlPlane, experiments.CtlPlaneTable),
	"faults": func(o experiments.Options, w io.Writer) (any, error) {
		res := experiments.Faults(o)
		if err := show(w, experiments.FaultsTable(res)); err != nil {
			return res, err
		}
		sf, su, fa, se := experiments.FaultSchedule(o)
		_, err := fmt.Fprintf(w, "  schedule: output 0 stalled [%d,%d), input 1 fail-stops at cycle %d, settle window ends at %d\n\n",
			sf, su, fa, se)
		return res, err
	},
}

// suiteOptions is ssvc-bench -quick at the given seed and worker count.
func suiteOptions(seed uint64, workers int) experiments.Options {
	o := experiments.Quick()
	o.Seed = seed
	o.Workers = workers
	return o
}

// suitePass runs every experiment once and returns the output digest and
// the wall time. Each experiment is wrapped by around (nil = none), which
// the traced pass uses to open one span per experiment. Experiment Err
// fields and render errors count as failed operations.
func (r *run) suitePass(o experiments.Options, around func(name string, fn func())) (string, time.Duration) {
	var buf bytes.Buffer
	start := time.Now()
	for _, name := range experimentNames {
		exec := func() {
			res, err := suiteRuns[name](o, &buf)
			r.check(err == nil, "paper-suite %s: render: %v", name, err)
			errs := resultErrors(reflect.ValueOf(res), 0)
			r.check(len(errs) == 0, "paper-suite %s: %v", name, errs)
		}
		if around != nil {
			around(name, exec)
		} else {
			exec()
		}
	}
	elapsed := time.Since(start)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), elapsed
}

// resultErrors collects every non-nil error held in a field named Err
// anywhere inside v (structs, slices, arrays, pointers, maps).
func resultErrors(v reflect.Value, depth int) []error {
	if !v.IsValid() || depth > 8 {
		return nil
	}
	var errs []error
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			errs = append(errs, resultErrors(v.Elem(), depth+1)...)
		}
	case reflect.Struct:
		errType := reflect.TypeOf((*error)(nil)).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, ft := v.Field(i), v.Type().Field(i)
			if ft.Name == "Err" && ft.Type == errType {
				if !f.IsNil() && f.CanInterface() {
					errs = append(errs, f.Interface().(error))
				}
				continue
			}
			if ft.IsExported() {
				errs = append(errs, resultErrors(f, depth+1)...)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			errs = append(errs, resultErrors(v.Index(i), depth+1)...)
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			errs = append(errs, resultErrors(it.Value(), depth+1)...)
		}
	}
	return errs
}

// checkSuiteDigest applies the paper-suite oracle: every pass of a run
// agrees with the first, and at the default seed with the recorded
// digest.
func (r *run) checkSuiteDigest(digest string, first *string) {
	if *first == "" {
		*first = digest
		r.detail("paper-suite.digest", digest)
		if r.seed == defaultSeed {
			r.check(digest == suiteDigestDefault, "paper-suite digest %s != recorded %s at seed %d", digest, suiteDigestDefault, defaultSeed)
		}
		return
	}
	r.check(digest == *first, "paper-suite digest %s differs from the run's first pass %s", digest, *first)
}

// suiteMeasurer samples paper-suite passes at nproc workers. Its set-up
// is a full warm-up pass.
type suiteMeasurer struct {
	r              *run
	o              experiments.Options
	first          string
	setups, passes []float64
}

func newSuiteMeasurer(r *run) measurer {
	return &suiteMeasurer{r: r, o: suiteOptions(r.seed, r.workers)}
}

func (m *suiteMeasurer) pass() float64 {
	d, el := m.r.suitePass(m.o, nil)
	m.r.checkSuiteDigest(d, &m.first)
	return el.Seconds()
}

func (m *suiteMeasurer) setup() bool {
	for i := 0; i < setupReps; i++ {
		m.setups = append(m.setups, m.pass())
	}
	return true
}

func (m *suiteMeasurer) sample() bool {
	m.passes = append(m.passes, m.pass())
	return true
}

func (m *suiteMeasurer) report(native bool) {
	if native {
		m.r.set("setup_s", median(m.setups))
	}
	m.r.set("suite_s", median(m.passes))
	m.r.detail("paper-suite.passes", len(m.passes))
}

// suiteTraced alternates an untraced pass at nproc workers (suite_s for
// runner.speedup), an untraced serial pass, and a serial pass with one
// span per experiment. The traced digest must equal the untraced one.
func suiteTraced(r *run) {
	par, serial := suiteOptions(r.seed, r.workers), suiteOptions(r.seed, 1)
	var first string
	var parS, serialS, tracedS []float64
	perExp := map[string][]float64{}
	for end := r.deadline(); len(tracedS) < 2 || time.Now().Before(end); {
		d, el := r.suitePass(par, nil)
		r.checkSuiteDigest(d, &first)
		parS = append(parS, el.Seconds())

		d, el = r.suitePass(serial, nil)
		r.checkSuiteDigest(d, &first)
		serialS = append(serialS, el.Seconds())

		pass := r.tracer.Begin("paper-suite.serial-pass", "")
		d, _ = r.suitePass(serial, func(name string, fn func()) {
			id := r.tracer.Begin("experiments."+name, name)
			fn()
			perExp[name] = append(perExp[name], r.tracer.End(id).Seconds())
		})
		tracedS = append(tracedS, r.tracer.End(pass).Seconds())
		r.check(d == first, "paper-suite traced serial digest %s != untraced %s", d, first)
	}
	sum := 0.0
	for _, name := range experimentNames {
		m := median(perExp[name])
		r.set("experiments."+name+"_s", m)
		sum += m
	}
	r.set("runner.speedup", sum/median(parS))
	r.set("trace_overhead_ratio", median(tracedS)/median(serialS))
	r.detail("paper-suite.suite_s", median(parS))
	r.detail("paper-suite.serial_s", median(serialS))
	r.detail("paper-suite.traced_passes", len(tracedS))
}
