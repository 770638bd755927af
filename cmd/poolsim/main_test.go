package main

import (
	"strings"
	"testing"

	"pooldcs/internal/experiment"
)

func TestRunSingleExperimentText(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "fig6b"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Figure 6", "DIM", "Pool", "300"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-format", "csv", "fig7a"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Query,DIM,Pool") {
		t.Errorf("CSV header missing:\n%s", got)
	}
	if !strings.Contains(got, "1-Partial,") {
		t.Errorf("CSV row missing:\n%s", got)
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-format", "markdown", "insert"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "| NetworkSize | DIM | Pool |") {
		t.Errorf("markdown table missing:\n%s", got)
	}
	if !strings.HasPrefix(got, "### ") {
		t.Errorf("markdown heading missing:\n%s", got)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "poolsize", "energy"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "side-length") || !strings.Contains(got, "energy footprint") {
		t.Errorf("missing experiment outputs:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no experiment accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	// A bad -format or table name is reported before any table runs: the
	// two-node deployment would fail first if fig6a were attempted, and
	// insert would print a table.
	if err := run([]string{"-format", "xml", "-sizes", "2", "fig6a"}, &out); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("unknown format not reported first: %v", err)
	}
	out.Reset()
	if err := run([]string{"-quick", "insert", "bogus"}, &out); err == nil || out.Len() > 0 {
		t.Errorf("unknown experiment after a known one: err %v, output %q", err, out.String())
	}
	if err := run([]string{"-nosuchflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-trace-ring", "-1", "saturation"}, &out); err == nil {
		t.Error("negative trace ring accepted")
	}
}

// TestRunTraceRing: a tiny flight recorder must still produce a valid
// saturation table — eviction degrades the attribution columns, never
// the run.
func TestRunTraceRing(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-trace-ring", "512", "saturation"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "queue%") {
		t.Errorf("saturation table missing attribution columns:\n%s", out.String())
	}
}

// TestAllCoversEveryExperiment: "all" and the by-name lookup are two views
// of the one registry, so every table is reachable both ways, once, and the
// error text lists exactly the registry. (That each table's Result carries
// its registered ID is checked by run itself, hence by TestGolden.)
func TestAllCoversEveryExperiment(t *testing.T) {
	seen := make(map[string]bool)
	for _, tbl := range experiment.Tables() {
		if tbl.Name == "" || tbl.ID == "" || tbl.Run == nil || tbl.Name == "all" {
			t.Errorf("malformed registry entry %+v", tbl)
		}
		if seen[tbl.Name] || seen[tbl.ID] {
			t.Errorf("registry lists %q (%s) twice", tbl.Name, tbl.ID)
		}
		seen[tbl.Name], seen[tbl.ID] = true, true
		if got, ok := experiment.Lookup(tbl.Name); !ok || got.ID != tbl.ID {
			t.Errorf("Lookup(%q) = %+v, %v", tbl.Name, got, ok)
		}
	}
	var out strings.Builder
	err := run(nil, &out)
	if err == nil || !strings.HasSuffix(err.Error(), tableNames()+", all") {
		t.Errorf("no-argument error does not list the registry: %v", err)
	}
}

// TestQuickHonoursQueries: -quick supplies a query count only when
// -queries is absent.
func TestQuickHonoursQueries(t *testing.T) {
	render := func(args ...string) string {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	quick := render("-quick", "energy")
	if got := render("-quick", "-queries", "30", "energy"); got != quick {
		t.Errorf("-quick -queries 30 differs from -quick:\n%s%s", got, quick)
	}
	if got := render("-quick", "-queries", "7", "energy"); got == quick || !strings.Contains(got, "insert + 7 queries") {
		t.Errorf("-quick discarded -queries 7:\n%s", got)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("300, 600,900")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 300 || got[2] != 900 {
		t.Errorf("parseSizes = %v", got)
	}
	if _, err := parseSizes("300,abc"); err == nil {
		t.Error("garbage size accepted")
	}
	if _, err := parseSizes("1"); err == nil {
		t.Error("size below 2 accepted")
	}
}

func TestRunCustomSizes(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-sizes", "300", "fig6b"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "300") || strings.Contains(got, "600") {
		t.Errorf("custom sizes not honoured:\n%s", got)
	}
	if err := run([]string{"-sizes", "x", "fig6b"}, &out); err == nil {
		t.Error("bad -sizes accepted")
	}
}
