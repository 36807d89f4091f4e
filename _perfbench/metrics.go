package main

// Metric describes one reported number. For a per-layer metric, Moves
// names the end-to-end metrics it should move and Workload the workload
// that exercises its layer; every other workload bypasses the layer and
// reports the metric as 0 (see README.md).
type Metric struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better,omitempty"`
	Layer    string `json:"layer,omitempty"`
	Moves    string `json:"moves,omitempty"`
	Workload string `json:"workload,omitempty"`
}

// endToEnd lists the metrics a user of the system would see, measured
// with tracing off. Every run reports all of them.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "suite_s", Unit: "s", Better: "lower"},
	{Name: "sim_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "lint_s", Unit: "s", Better: "lower"},
}

// experimentNames are the experiments `ssvc-bench -exp all` runs, in its
// order. Each gets a per-layer metric experiments.<name>_s.
var experimentNames = []string{
	"fig4a", "fig4b", "fig5", "adherence", "table1", "table2", "area", "energy",
	"lanes", "glbursts", "glbound", "chaining", "fixedpriority", "static",
	"sigbits", "gsf", "decoupling", "convergence", "scale64", "pvc", "compose",
	"motivation", "idleskip", "ctlplane", "faults",
}

// perLayer lists the traced run's metrics with the layer each times and
// the end-to-end metric it should move.
var perLayer = func() []Metric {
	var ms []Metric
	for _, e := range experimentNames {
		ms = append(ms, Metric{Name: "experiments." + e + "_s", Unit: "s", Layer: "experiments, engines",
			Moves: "suite_s", Workload: "paper-suite"})
	}
	xbar := func(name, unit, layer, moves string) Metric {
		return Metric{Name: name, Unit: unit, Layer: layer, Moves: moves, Workload: "xbar64-sat"}
	}
	churn := func(name, unit, layer, moves string) Metric {
		return Metric{Name: name, Unit: unit, Layer: layer, Moves: moves, Workload: "ctlplane-churn"}
	}
	lint := func(name, unit, moves string) Metric {
		return Metric{Name: name, Unit: unit, Layer: "analysis", Moves: moves, Workload: "lint"}
	}
	ms = append(ms,
		Metric{Name: "runner.speedup", Unit: "ratio", Layer: "runner", Moves: "suite_s", Workload: "paper-suite"},
		xbar("core.arbitrate_ns", "ns", "core, arb", "sim_ns_per_cycle, suite_s"),
		xbar("core.granted_ns", "ns", "core, arb", "sim_ns_per_cycle, suite_s"),
		xbar("core.tick_ns_per_cycle", "ns/cycle", "core, arb", "sim_ns_per_cycle, suite_s"),
		xbar("core.arbitrate_calls_per_cycle", "count", "core, arb", "sim_ns_per_cycle, suite_s"),
		xbar("core.win_ratio", "ratio", "core, arb", "sim_ns_per_cycle, suite_s"),
		xbar("traffic.generate_ns_per_cycle", "ns/cycle", "traffic, fabric", "sim_ns_per_cycle"),
		xbar("stats.observe_ns_per_delivery", "ns", "stats", "sim_ns_per_cycle"),
		xbar("switchsim.self_ns_per_cycle", "ns/cycle", "switchsim, fabric", "sim_ns_per_cycle, suite_s"),
		xbar("switchsim.pkts_per_cycle", "count", "switchsim", "explains sim_ns_per_cycle"),
		xbar("switchsim.arb_cycle_share", "ratio", "switchsim", "explains sim_ns_per_cycle"),
		xbar("switchsim.skipped_outputs_per_cycle", "count", "switchsim", "explains sim_ns_per_cycle"),
		xbar("alloc.bytes_per_cycle", "B/cycle", "all engine layers", "sim_ns_per_cycle, max_rss_mb"),
		xbar("alloc.allocs_per_cycle", "count", "all engine layers", "sim_ns_per_cycle, max_rss_mb"),
		churn("ctlplane.acks_per_s", "1/s", "ctlplane (operator path)", "the operator's throughput; end-to-end on a host with steady fsync"),
		churn("ctlplane.ack_p50_us", "us", "ctlplane (operator path)", "the operator's ack latency; end-to-end on a host with steady fsync"),
		churn("ctlplane.ack_p99_us", "us", "ctlplane (journal fsync tail)", "the operator's ack latency tail; end-to-end on a host with steady fsync"),
		churn("ctlplane.ack_samples", "count", "ctlplane", "sample count behind the ack percentiles"),
		churn("ctlplane.parse_ns", "ns", "ctlplane (protocol)", "ctlplane.ack_p50_us"),
		churn("ctlplane.apply_ack_us", "us", "ctlplane", "ctlplane.ack_p50_us, ctlplane.ack_p99_us"),
		churn("ctlplane.apply_reject_us", "us", "ctlplane", "ctlplane.acks_per_s"),
		churn("ctlplane.admit_us", "us", "ctlplane (admission + materialise)", "ctlplane.ack_p50_us"),
		churn("ctlplane.durable_us", "us", "ctlplane (journal)", "ctlplane.ack_p50_us, ctlplane.ack_p99_us"),
		churn("ctlplane.advance_ns_per_cycle", "ns/cycle", "ctlplane -> switchsim (polled)", "ctlplane.acks_per_s, recover_s"),
		churn("ctlplane.live_flow_ratio", "ratio", "ctlplane", "explains ctlplane.acks_per_s, recover_s"),
		churn("ctlplane.reject_ratio", "ratio", "ctlplane", "explains ctlplane.acks_per_s, recover_s"),
		churn("ctlplane.journal_bytes", "bytes", "ctlplane", "explains ctlplane.acks_per_s, recover_s"),
		churn("recovery.read_ms", "ms", "ctlplane (replay)", "recover_s"),
		churn("recovery.rebuild_ns_per_cycle", "ns/cycle", "ctlplane (replay)", "recover_s"),
		lint("analysis.load_s", "s", "lint_s"),
		lint("analysis.rules_s", "s", "lint_s"),
		lint("analysis.findings", "count", "lint_s"),
		Metric{Name: "trace_overhead_ratio", Unit: "ratio", Layer: "tracing", Moves: "none (traced total / untraced total)", Workload: "all"},
	)
	higher := map[string]bool{"runner.speedup": true, "core.win_ratio": true, "switchsim.pkts_per_cycle": true,
		"switchsim.skipped_outputs_per_cycle": true, "ctlplane.live_flow_ratio": true, "ctlplane.ack_samples": true,
		"ctlplane.acks_per_s": true}
	for i := range ms {
		ms[i].Better = "lower"
		if higher[ms[i].Name] {
			ms[i].Better = "higher"
		}
	}
	return ms
}()
