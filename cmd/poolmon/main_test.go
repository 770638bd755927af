package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pooldcs/internal/attrib"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden runs poolmon with args and compares against testdata/<name>.golden.
func golden(t *testing.T, name string, args []string) {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGolden locks the exact monitoring report of a seeded run, with and
// without churn, and the full Prometheus and JSON expositions of a run
// with every optional family. Regenerate intentionally with:
//
//	go test ./cmd/poolmon -run Golden -update
func TestGolden(t *testing.T) {
	golden(t, "quiet", []string{"-n", "300", "-queries", "20"})
	golden(t, "churn", []string{"-n", "300", "-queries", "20", "-churn", "10"})
	golden(t, "repair", []string{"-n", "300", "-queries", "20", "-churn", "10", "-repair"})
	golden(t, "autopsy", []string{"-n", "300", "-queries", "20", "-churn", "10", "-autopsy", "-slo", "60ms"})
	full := []string{"-n", "300", "-queries", "20", "-churn", "10", "-repair", "-autopsy"}
	golden(t, "full-prom", append(full, "-format", "prom"))
	golden(t, "full-json", append(full[:len(full):len(full)], "-format", "json"))
}

// TestAutopsyFamilies checks that -autopsy surfaces the attribution and
// burn-rate families in every export format, and that without the flag
// none of them appear — the exposition contract that keeps existing
// dashboards byte-identical.
func TestAutopsyFamilies(t *testing.T) {
	var prom strings.Builder
	if err := run([]string{"-n", "300", "-queries", "10", "-autopsy", "-slo", "60ms", "-format", "prom"}, &prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE attrib_phase_ms_total counter",
		`attrib_phase_ms_total{phase="transmit"}`,
		`attrib_phase_ms_total{phase="repair"}`,
		"# TYPE attrib_queries_total counter",
		"# TYPE slo_burn_fast gauge",
		"# TYPE slo_burn_slow gauge",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom output missing %q", want)
		}
	}

	var plain strings.Builder
	if err := run([]string{"-n", "300", "-queries", "10", "-format", "prom"}, &plain); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"attrib_", "slo_burn_"} {
		if strings.Contains(plain.String(), family) {
			t.Errorf("default run leaks %s* families into the exposition", family)
		}
	}

	var text strings.Builder
	if err := run([]string{"-n", "300", "-queries", "10", "-autopsy"}, &text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"attrib_queries_total", "slo_burn_slow"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

// TestBurnRates holds poolmon's burn-rate rule: windows of the sampling
// period from 0 to the last query's, each breached when its p99 passes
// the SLO, the breached fraction over the last six windows (fast) and the
// whole run (slow) divided by a 5% error budget.
func TestBurnRates(t *testing.T) {
	const (
		window = time.Second
		slo    = 100 * time.Millisecond
		ok     = 50 * time.Millisecond
		slow   = 200 * time.Millisecond
	)
	// run builds one query per entry of lats, lats[w] ending in window w;
	// a zero entry leaves its window empty.
	run := func(lats ...time.Duration) []attrib.Breakdown {
		var bds []attrib.Breakdown
		for w, lat := range lats {
			if lat > 0 {
				bds = append(bds, attrib.Breakdown{End: time.Duration(w)*window + window/2, Total: lat})
			}
		}
		return bds
	}
	repeat := func(n int, lat time.Duration) []time.Duration {
		lats := make([]time.Duration, n)
		for i := range lats {
			lats[i] = lat
		}
		return lats
	}
	// p99 puts 100 queries in window 0, over of them past the SLO.
	p99 := func(over int) []attrib.Breakdown {
		bds := make([]attrib.Breakdown, 100)
		for i := range bds {
			bds[i] = attrib.Breakdown{End: window / 2, Total: ok}
			if i < over {
				bds[i].Total = slow
			}
		}
		return bds
	}
	// burn is bad breached windows of n against the 5% budget, computed
	// at run time as burnRates computes it.
	burn := func(bad, n int) float64 { return float64(bad) / float64(n) / 0.05 }
	for _, tc := range []struct {
		name       string
		bds        []attrib.Breakdown
		window     time.Duration
		fast, slow float64
	}{
		{"no breakdowns", nil, window, 0, 0},
		{"zero window", run(slow, slow), 0, 0, 0},
		{"every window within the SLO", run(repeat(10, ok)...), window, 0, 0},
		{"every window breached", run(repeat(10, slow)...), window, 20, 20},
		{"last six windows clean", run(append(repeat(4, slow), repeat(6, ok)...)...), window, 0, burn(4, 10)},
		{"empty window between breached ones", run(slow, 0, slow), window, burn(2, 3), burn(2, 3)},
		{"99th smallest of 100 within the SLO", p99(1), window, 0, 0},
		{"99th smallest of 100 past the SLO", p99(2), window, 20, 20},
	} {
		fast, slowBurn := burnRates(tc.bds, slo, tc.window)
		if fast != tc.fast || slowBurn != tc.slow {
			t.Errorf("%s: burn rates fast %g slow %g, want %g and %g", tc.name, fast, slowBurn, tc.fast, tc.slow)
		}
	}
}

// TestRepairFamilies checks that -repair surfaces the anti-entropy
// metric families through every export format.
func TestRepairFamilies(t *testing.T) {
	var prom strings.Builder
	if err := run([]string{"-n", "300", "-queries", "5", "-churn", "10", "-repair", "-format", "prom"}, &prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE repair_sessions_total counter",
		"# TYPE repair_symbols_total counter",
		"# TYPE repair_bytes_total counter",
		"# TYPE repair_events_moved_total counter",
		"# TYPE repair_convergence_ms summary",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom output missing %q", want)
		}
	}

	var js strings.Builder
	if err := run([]string{"-n", "300", "-queries", "5", "-churn", "10", "-repair", "-format", "json"}, &js); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("json output: %v", err)
	}
	if !strings.Contains(js.String(), "repair_sessions_total") {
		t.Error("json output missing repair_sessions_total")
	}

	var text strings.Builder
	if err := run([]string{"-n", "300", "-queries", "5", "-churn", "10", "-repair"}, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "repair_sessions_total") {
		t.Error("text report missing repair_sessions_total")
	}
}

func TestPromFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "300", "-queries", "5", "-format", "prom"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"# TYPE net_tx_frames_total counter",
		"# TYPE pool_query_fanout_cells summary",
		`net_tx_frames_total{node="0"}`,
		"pool_query_fanout_cells_count",
		"# TYPE node_mailbox_depth gauge",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// Every line must match the exposition grammar.
	line := regexp.MustCompile(`^(# (HELP|TYPE) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?(_sum|_count)? [^ ]+)$`)
	for _, l := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("bad exposition line: %q", l)
		}
	}
}

func TestJSONFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "300", "-queries", "5", "-format", "json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Families []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"families"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range doc.Families {
		names[f.Name] = true
	}
	for _, want := range []string{"net_tx_frames_total", "pool_stored_events", "discovery_beacons_total", "node_stored_events"} {
		if !names[want] {
			t.Errorf("json export missing family %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-format", "xml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-tick", "0s"}, &out); err == nil {
		t.Error("zero tick accepted")
	}
	if err := run([]string{"-churn", "95"}, &out); err == nil {
		t.Error("out-of-range churn accepted")
	}
	if err := run([]string{"stray"}, &out); err == nil {
		t.Error("stray positional argument accepted")
	}
	if err := run([]string{"-nosuchflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
