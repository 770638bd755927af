package metrics

import (
	"bufio"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"pooldcs/internal/stats"
)

func buildRegistry() *Registry {
	r := New()
	r.CounterFunc("net_messages_total", "total messages", func() float64 { return 7 })
	r.GaugeFunc("pool_delegations", "active delegations", func() float64 { return 2.5 })
	tx := []uint64{4, 0, 1}
	r.CounterVecFunc("net_tx_frames_total", "frames sent per node", "node", NodeLabels(3), func(i int) uint64 { return tx[i] })
	h := stats.NewIntHistogram()
	for _, v := range []int64{1, 2, 2, 3, 10} {
		h.Add(v)
	}
	r.HistogramOf("query_fanout_cells", "cells addressed per query", h)
	r.CounterFunc("empty_total", "never incremented", func() float64 { return 0 })
	return r
}

func TestWriteToFormat(t *testing.T) {
	snap := buildRegistry().Snapshot()
	text := snap.Text()
	want := []string{
		"# HELP net_messages_total total messages",
		"# TYPE net_messages_total counter",
		"net_messages_total 7",
		"# TYPE pool_delegations gauge",
		"pool_delegations 2.5",
		`net_tx_frames_total{node="0"} 4`,
		`net_tx_frames_total{node="1"} 0`,
		`net_tx_frames_total{node="2"} 1`,
		"# TYPE query_fanout_cells summary",
		`query_fanout_cells{quantile="0.5"} 2`,
		`query_fanout_cells{quantile="0.95"} 10`,
		`query_fanout_cells{quantile="0.99"} 10`,
		"query_fanout_cells_sum 18",
		"query_fanout_cells_count 5",
		"empty_total 0",
	}
	for _, line := range want {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing line %q\n---\n%s", line, text)
		}
	}
	// Zero-valued families still expose, so dashboards see the series.
	if !strings.Contains(text, "empty_total 0\n") {
		t.Error("zero counter omitted")
	}
}

// expositionLine matches a valid sample line of the text format.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
}

func TestWriteToIsWellFormed(t *testing.T) {
	checkExposition(t, buildRegistry().Snapshot().Text())
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	cells := []uint64{1, 0, 0}
	r.CounterVecFunc("weird", "help with \\ backslash\nand newline", "zone", []string{`a"b`, "c\\d", "e\nf"},
		func(i int) uint64 { return cells[i] })
	text := r.Snapshot().Text()
	for _, want := range []string{
		`weird{zone="a\"b"} 1`,
		`weird{zone="c\\d"} 0`,
		`weird{zone="e\nf"} 0`,
		`# HELP weird help with \\ backslash\nand newline`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in\n%s", want, text)
		}
	}
	checkExposition(t, text)
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := buildRegistry().Snapshot()
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Families) != len(snap.Families) {
		t.Fatalf("families = %d, want %d", len(back.Families), len(snap.Families))
	}
	for i, f := range back.Families {
		if f.Name != snap.Families[i].Name || len(f.Points) != len(snap.Families[i].Points) {
			t.Fatalf("family %d diverged: %+v vs %+v", i, f, snap.Families[i])
		}
	}
}

func TestSnapshotValues(t *testing.T) {
	snap := buildRegistry().Snapshot()
	if got := snap.Values("net_tx_frames_total"); len(got) != 3 || got[0] != 4 || got[2] != 1 {
		t.Fatalf("Values = %v", got)
	}
	if snap.Values("nope") != nil {
		t.Fatal("unknown name should be nil")
	}
	if snap.Value("net_messages_total") != 7 || snap.Value("nope") != 0 {
		t.Fatal("Value lookup wrong")
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		7:       "7",
		-3:      "-3",
		2.5:     "2.5",
		1e6:     "1000000",
		0.00012: "0.00012",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshotIsStable(t *testing.T) {
	// Two snapshots of an unchanged registry render identically —
	// registration order, not map order.
	r := buildRegistry()
	if a, b := r.Snapshot().Text(), r.Snapshot().Text(); a != b {
		t.Fatal("snapshot text not deterministic")
	}
}
