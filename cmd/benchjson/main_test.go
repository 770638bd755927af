package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pooldcs
cpu: Generic x86-64
BenchmarkFig6aQueryCost/n=300-8         	       1	  51234567 ns/op	        41.20 dim-msgs/query	        12.30 pool-msgs/query
BenchmarkTransmit-8   	 5000000	       231.4 ns/op	      48 B/op	       1 allocs/op
PASS
ok  	pooldcs	3.210s
goos: linux
goarch: amd64
pkg: pooldcs/internal/metrics
BenchmarkDisabledHotPath
BenchmarkDisabledHotPath-8	1000000000	         0.7587 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	pooldcs/internal/metrics	1.002s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Generic x86-64" {
		t.Errorf("context lines mis-parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	fig := rep.Benchmarks[0]
	if fig.Name != "BenchmarkFig6aQueryCost/n=300" || fig.Pkg != "pooldcs" || fig.Procs != 8 {
		t.Errorf("fig6a header mis-parsed: %+v", fig)
	}
	if fig.NsPerOp != 51234567 || fig.Metrics["dim-msgs/query"] != 41.2 || fig.Metrics["pool-msgs/query"] != 12.3 {
		t.Errorf("fig6a values mis-parsed: %+v", fig)
	}

	tx := rep.Benchmarks[1]
	if tx.Iterations != 5000000 || tx.NsPerOp != 231.4 || *tx.BytesPerOp != 48 || *tx.AllocsPerOp != 1 {
		t.Errorf("transmit values mis-parsed: %+v", tx)
	}

	hot := rep.Benchmarks[2]
	if hot.Pkg != "pooldcs/internal/metrics" || hot.NsPerOp != 0.7587 || *hot.AllocsPerOp != 0 {
		t.Errorf("hot-path values mis-parsed: %+v", hot)
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-o", path, "-date", "2026-08-05"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty with -o: %q", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON written: %v", err)
	}
	if rep.Date != "2026-08-05" || rep.Go == "" || len(rep.Benchmarks) != 3 {
		t.Errorf("report fields wrong: date=%q go=%q n=%d", rep.Date, rep.Go, len(rep.Benchmarks))
	}
}

// writeReport marshals a Report into a temp file for compare/gate tests.
func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func f64(v float64) *float64 { return &v }

func TestCompareReports(t *testing.T) {
	oldPath := writeReport(t, Report{Date: "2026-08-01", Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkFig6a", NsPerOp: 1000, BytesPerOp: f64(800), AllocsPerOp: f64(100)},
		{Pkg: "pooldcs", Name: "BenchmarkOldOnly", NsPerOp: 5},
	}})
	newPath := writeReport(t, Report{Date: "2026-08-05", Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkFig6a", NsPerOp: 500, BytesPerOp: f64(800), AllocsPerOp: f64(35)},
		{Pkg: "pooldcs", Name: "BenchmarkNewOnly", NsPerOp: 7},
	}})

	var out strings.Builder
	if err := run([]string{"-compare", oldPath, newPath}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"-50.00%", "-65.00%", "allocs/op", "B/op", "~"} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "BenchmarkOldOnly") || strings.Contains(got, "BenchmarkNewOnly") {
		t.Errorf("unmatched benchmarks leaked into compare output:\n%s", got)
	}

	if err := run([]string{"-compare", oldPath}, strings.NewReader(""), &out); err == nil {
		t.Error("-compare with one file accepted")
	}
	disjoint := writeReport(t, Report{Benchmarks: []Benchmark{{Pkg: "x", Name: "BenchmarkZ", NsPerOp: 1}}})
	if err := run([]string{"-compare", oldPath, disjoint}, strings.NewReader(""), &out); err == nil {
		t.Error("disjoint reports accepted")
	}
}

func TestGateReport(t *testing.T) {
	baseline := writeReport(t, Report{Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkFig6a", NsPerOp: 1000, AllocsPerOp: f64(100)},
	}})

	// Within tolerance passes.
	var out strings.Builder
	stream := "pkg: pooldcs\nBenchmarkFig6a-8 1 900 ns/op 10 B/op 105 allocs/op\n"
	if err := run([]string{"-gate", baseline}, strings.NewReader(stream), &out); err != nil {
		t.Fatalf("within-tolerance run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("gate output missing ok status:\n%s", out.String())
	}

	// Past tolerance fails.
	stream = "pkg: pooldcs\nBenchmarkFig6a-8 1 900 ns/op 10 B/op 120 allocs/op\n"
	err := run([]string{"-gate", baseline}, strings.NewReader(stream), &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds baseline") {
		t.Errorf("regression not caught: %v", err)
	}

	// A tighter tolerance flips the first stream to failing.
	stream = "pkg: pooldcs\nBenchmarkFig6a-8 1 900 ns/op 10 B/op 105 allocs/op\n"
	if err := run([]string{"-gate", baseline, "-tolerance", "2"}, strings.NewReader(stream), &out); err == nil {
		t.Error("tolerance flag ignored")
	}

	// Baseline benchmarks missing from the stream fail the gate.
	if err := run([]string{"-gate", baseline}, strings.NewReader("PASS\n"), &out); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("missing benchmark not caught: %v", err)
	}
}

func TestGateNsPerOp(t *testing.T) {
	baseline := writeReport(t, Report{Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkFig6a", NsPerOp: 1000, AllocsPerOp: f64(100)},
	}})

	// ns/op regression invisible by default (time gating is opt-in).
	var out strings.Builder
	stream := "pkg: pooldcs\nBenchmarkFig6a-8 1000 5000 ns/op 10 B/op 100 allocs/op\n"
	if err := run([]string{"-gate", baseline}, strings.NewReader(stream), &out); err != nil {
		t.Fatalf("ns regression gated without opt-in: %v", err)
	}

	// -ns-tolerance turns it on globally.
	err := run([]string{"-gate", baseline, "-ns-tolerance", "25"}, strings.NewReader(stream), &out)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Errorf("ns regression not caught with -ns-tolerance: %v", err)
	}
	stream = "pkg: pooldcs\nBenchmarkFig6a-8 1000 1100 ns/op 10 B/op 100 allocs/op\n"
	if err := run([]string{"-gate", baseline, "-ns-tolerance", "25"}, strings.NewReader(stream), &out); err != nil {
		t.Errorf("within-tolerance ns run failed: %v", err)
	}

	// A per-benchmark ns_tolerance_pct overrides the flag (tighter here).
	strict := writeReport(t, Report{Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkFig6a", NsPerOp: 1000, AllocsPerOp: f64(100), NsTolerancePct: f64(5)},
	}})
	err = run([]string{"-gate", strict, "-ns-tolerance", "50"}, strings.NewReader(stream), &out)
	if err == nil || !strings.Contains(err.Error(), "5%") {
		t.Errorf("per-benchmark tolerance did not override flag: %v", err)
	}

	// An ns-only baseline entry (no allocs) still gates time.
	nsOnly := writeReport(t, Report{Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkFig6a", NsPerOp: 1000, NsTolerancePct: f64(5)},
	}})
	stream = "pkg: pooldcs\nBenchmarkFig6a-8 1000 2000 ns/op\n"
	if err := run([]string{"-gate", nsOnly}, strings.NewReader(stream), &out); err == nil {
		t.Error("ns-only baseline did not gate")
	}
}

func TestGateBytesPerOp(t *testing.T) {
	baseline := writeReport(t, Report{Benchmarks: []Benchmark{
		{Pkg: "pooldcs", Name: "BenchmarkEmit", NsPerOp: 60, BytesPerOp: f64(0), AllocsPerOp: f64(0), BytesTolerancePct: f64(10)},
		{Pkg: "pooldcs", Name: "BenchmarkRead", NsPerOp: 1000, BytesPerOp: f64(7000), AllocsPerOp: f64(80), BytesTolerancePct: f64(10)},
		{Pkg: "pooldcs", Name: "BenchmarkUngated", NsPerOp: 1000, BytesPerOp: f64(10), AllocsPerOp: f64(1)},
	}})
	stream := func(emit, read int) string {
		return "pkg: pooldcs\n" +
			"BenchmarkEmit-8 100 60 ns/op " + strconv.Itoa(emit) + " B/op 0 allocs/op\n" +
			"BenchmarkRead-8 100 1000 ns/op " + strconv.Itoa(read) + " B/op 80 allocs/op\n" +
			"BenchmarkUngated-8 100 1000 ns/op 5000 B/op 1 allocs/op\n"
	}
	var out strings.Builder
	if err := run([]string{"-gate", baseline}, strings.NewReader(stream(0, 7600)), &out); err != nil {
		t.Fatalf("within-tolerance B/op failed (rows without bytes_tolerance_pct must not gate bytes): %v", err)
	}
	if !strings.Contains(out.String(), "B/op (tol 10%)") {
		t.Errorf("gate output has no B/op row:\n%s", out.String())
	}
	// A zero baseline gates exactly; 10 % over a non-zero one fails.
	if err := run([]string{"-gate", baseline}, strings.NewReader(stream(1, 7000)), &out); err == nil || !strings.Contains(err.Error(), "BenchmarkEmit: 1 B/op") {
		t.Errorf("1 B/op over a 0 B/op baseline not caught: %v", err)
	}
	if err := run([]string{"-gate", baseline}, strings.NewReader(stream(0, 7800)), &out); err == nil || !strings.Contains(err.Error(), "BenchmarkRead: 7800 B/op") {
		t.Errorf("B/op regression past 10%% not caught: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"stray"}, strings.NewReader(""), &out); err == nil {
		t.Error("stray positional argument accepted")
	}
	if _, err := parse(strings.NewReader("BenchmarkBroken-8 notanumber 12 ns/op\n")); err == nil {
		t.Error("bad iteration count accepted")
	}
	if _, err := parse(strings.NewReader("BenchmarkBroken-8 10 12\n")); err == nil {
		t.Error("odd value/unit tail accepted")
	}
}

func TestPairsReport(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"wall_s","unit":"s","better":"lower"},
		{"name":"ops_per_s","unit":"1/s","better":"higher"},
		{"name":"msgs","unit":"msgs","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(side string, wall, ops float64) string {
		return side + "\t" + `{"correct":true,"attempted":100,"failed":0,"metrics":{` +
			`"wall_s":{"value":` + fmt.Sprint(wall) + `,"unit":"s"},` +
			`"ops_per_s":{"value":` + fmt.Sprint(ops) + `,"unit":"1/s"},` +
			`"msgs":{"value":155.5,"unit":"msgs"}}}` + "\n"
	}
	// Ten pairs, order alternating as bench-pair writes them. wall_s: base
	// 1.00..1.09, new 0.70..0.79 — every pair won, gap far beyond the
	// base's quartile distance. ops_per_s: new is higher in 8 of 10 pairs
	// only. msgs: always tied.
	var in strings.Builder
	for i := 0; i < 10; i++ {
		ops := 120.0
		if i >= 8 {
			ops = 90
		}
		b, n := line("base", 1+float64(i)/100, 100), line("new", 0.7+float64(i)/100, ops)
		if i%2 == 1 {
			b, n = n, b
		}
		in.WriteString(b + n)
	}
	var out strings.Builder
	if err := run([]string{"-pairs", spec}, strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	// metric unit bq1 bmed bq3 nq1 nmed nq3 delta won gain
	if got := rows["wall_s"]; len(got) != 11 || got[2] != "1.022" || got[3] != "1.045" || got[4] != "1.068" ||
		got[6] != "0.745" || got[8] != "-28.71%" || got[9] != "10/10" || got[10] != "yes" {
		t.Errorf("wall_s row: %v", got)
	}
	if got := rows["ops_per_s"]; len(got) != 11 || got[9] != "8/10" || got[10] != "no" {
		t.Errorf("ops_per_s row (8 of 10 pairs is not a gain): %v", got)
	}
	if got := strings.Join(rows["msgs"], " "); !strings.Contains(got, "0/10 (10 tied) no") || !strings.Contains(got, " ~ ") {
		t.Errorf("msgs row (ties win nothing): %v", got)
	}
	if !strings.Contains(out.String(), "10 pairs; failed operations: base 0 of 1000, new 0 of 1000") {
		t.Errorf("header: %q", out.String())
	}

	for name, bad := range map[string]string{
		"unbalanced": line("base", 1, 1),
		"untagged":   `{"metrics":{}}` + "\n",
		"no metric":  "base\t{\"metrics\":{}}\nnew\t{\"metrics\":{}}\n",
		"empty":      "",
	} {
		if err := run([]string{"-pairs", spec}, strings.NewReader(bad), &out); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	if err := run([]string{"-pairs", filepath.Join(t.TempDir(), "missing.json")}, strings.NewReader(""), &out); err == nil {
		t.Error("missing BENCHMARK.json accepted")
	}
}
