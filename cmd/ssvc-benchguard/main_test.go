package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name, line string
		want       string
		m          metric
		ok         bool
	}{
		{
			name: "GOMAXPROCS suffix stripped",
			line: "BenchmarkMeshCycleRecycled-8   \t   20000\t      4213 ns/op\t       0 B/op\t       0 allocs/op",
			want: "BenchmarkMeshCycleRecycled", ok: true,
		},
		{
			name: "sub-benchmark with extra metric columns",
			line: "BenchmarkSwitchCycleRecycled/radix64/SSVC-2  20000  2512 ns/op  7.111 pkts/cycle  16 B/op  1 allocs/op",
			want: "BenchmarkSwitchCycleRecycled/radix64/SSVC", m: metric{BOp: 16, AllocsOp: 1}, ok: true,
		},
		{
			name: "no suffix on a single-CPU run",
			line: "BenchmarkCtlPlaneIdle  20000  900 ns/op  0.5 skips/cycle  0 B/op  0 allocs/op",
			want: "BenchmarkCtlPlaneIdle", ok: true,
		},
		{
			name: "allocs/op missing",
			line: "BenchmarkMeshCycleRecycled-8  20000  4213 ns/op  0 B/op  7.5 pkts/cycle",
		},
		{
			name: "not a benchmark line",
			line: "ok  \tswizzleqos/internal/mesh\t1.234s",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name, m, ok := parseBenchLine(tc.line)
			if ok != tc.ok || name != tc.want || m != tc.m {
				t.Errorf("parseBenchLine(%q) = (%q, %+v, %v), want (%q, %+v, %v)",
					tc.line, name, m, ok, tc.want, tc.m, tc.ok)
			}
		})
	}
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBaseline(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {
		"BenchmarkMeshCycleRecycled": {"after": {"ns_op": 4000, "B_op": 2, "allocs_op": 1}},
		"BenchmarkSwitchCycleRecycled": {"after": {
			"radix8/SSVC": {"B_op": 0, "allocs_op": 0},
			"radix64/SSVC": {"B_op": 3, "allocs_op": 0}
		}},
		"BenchmarkUnguarded": {"after": {"B_op": 9, "allocs_op": 9}},
		"BenchmarkComposeCycleRecycled": {"note": "no after block"}
	}}`)
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metric{
		"BenchmarkMeshCycleRecycled":                {BOp: 2, AllocsOp: 1},
		"BenchmarkSwitchCycleRecycled/radix8/SSVC":  {},
		"BenchmarkSwitchCycleRecycled/radix64/SSVC": {BOp: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries %v, want %d %v", len(got), got, len(want), want)
	}
	for name, m := range want {
		if got[name] != m {
			t.Errorf("%s = %+v, want %+v", name, got[name], m)
		}
	}
}

func TestLoadBaselineRejectsUnknownShape(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {"BenchmarkMeshCycleRecycled": {"after": [1, 2]}}}`)
	if _, err := loadBaseline(path); err == nil {
		t.Fatal("an array-shaped after block must be rejected")
	}
}

// TestCompareSortedReport pins the report order (by benchmark name,
// missing baselines included) and the check/failure counts.
func TestCompareSortedReport(t *testing.T) {
	got := map[string]metric{
		"BenchmarkZ":   {},
		"BenchmarkB":   {BOp: 8, AllocsOp: 1},
		"BenchmarkNew": {},
	}
	base := map[string]metric{
		"BenchmarkZ": {},
		"BenchmarkB": {},
		"BenchmarkA": {},
	}
	var out bytes.Buffer
	checked, failed := compare(&out, got, base)
	if checked != 2 || failed != 2 {
		t.Errorf("checked=%d failed=%d, want 2 and 2 (B regressed, A missing)", checked, failed)
	}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		order = append(order, strings.Fields(line)[0])
	}
	if want := "BenchmarkA BenchmarkB BenchmarkNew BenchmarkZ"; strings.Join(order, " ") != want {
		t.Errorf("report order %v, want %s", order, want)
	}
}
