package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pooldcs/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// recordAndAnalyze runs record into a temp file and returns the analyze
// report for it.
func recordAndAnalyze(t *testing.T, recordArgs, analyzeArgs []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var rec strings.Builder
	if err := run(append([]string{"record"}, append(recordArgs, "-o", path)...), &rec); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(append(append([]string{"analyze"}, analyzeArgs...), path), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// checkGolden compares got against testdata/<name>.golden, rewriting it
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
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

// TestGolden locks the analyzer report over seeded traced runs: span
// trees, hop percentiles, node ranking, and the by-kind breakdown are all
// deterministic. Regenerate intentionally with:
//
//	go test ./cmd/pooltrace -run Golden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name    string
		record  []string
		analyze []string
	}{
		{"pool", []string{"-nodes", "150", "-events", "2", "-queries", "8"}, []string{"-spans", "2", "-top", "5"}},
		{"poolsubsfail", []string{"-nodes", "150", "-events", "2", "-queries", "6", "-subs", "3", "-fail", "2"}, []string{"-spans", "1", "-top", "5"}},
		{"dim", []string{"-system", "dim", "-nodes", "150", "-events", "2", "-queries", "8"}, []string{"-spans", "2", "-top", "5"}},
		{"node", []string{"-system", "node", "-nodes", "150", "-events", "2", "-queries", "8"}, []string{"-spans", "2", "-top", "5"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, recordAndAnalyze(t, tc.record, tc.analyze))
		})
	}
}

// TestGoldenAutopsy locks the autopsy report end-to-end: record a node
// trace to JSONL, run the autopsy subcommand on the file, compare the
// blame table and worst-offender decompositions byte-for-byte.
func TestGoldenAutopsy(t *testing.T) {
	cases := []struct {
		name    string
		record  []string
		autopsy []string
	}{
		{"autopsy_node", []string{"-system", "node", "-nodes", "150", "-events", "2", "-queries", "12"}, []string{"-worst", "2"}},
		{"autopsy_node_fail", []string{"-system", "node", "-nodes", "150", "-events", "2", "-queries", "12", "-fail", "4", "-seed", "7"}, []string{"-worst", "2"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			var rec strings.Builder
			if err := run(append([]string{"record"}, append(tc.record, "-o", path)...), &rec); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := run(append(append([]string{"autopsy"}, tc.autopsy...), path), &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, out.String())
		})
	}
}

func TestRecordWritesValidJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	err := run([]string{"record", "-nodes", "150", "-events", "1", "-queries", "2", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recorded ") {
		t.Errorf("no summary line: %q", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if _, err := trace.Analyze(trace.LogOf(events)); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no command accepted")
	}
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"record", "stray"}, &out); err == nil {
		t.Error("record with positional arg accepted")
	}
	if err := run([]string{"analyze"}, &out); err == nil {
		t.Error("analyze without a file accepted")
	}
	if err := run([]string{"analyze", "/nonexistent/trace.jsonl"}, &out); err == nil {
		t.Error("analyze on missing file accepted")
	}
	if err := run([]string{"record", "-system", "cuckoo", "-o", "-"}, &out); err == nil {
		t.Error("unknown system accepted")
	}
	if err := run([]string{"autopsy"}, &out); err == nil {
		t.Error("autopsy without a file accepted")
	}
	if err := run([]string{"autopsy", "/nonexistent/trace.jsonl"}, &out); err == nil {
		t.Error("autopsy on missing file accepted")
	}
}
