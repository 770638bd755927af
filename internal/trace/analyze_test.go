package trace

import (
	"strings"
	"testing"
	"time"
)

// sampleTrace builds a small trace by hand: one insert span, one query
// span with a nested fan-out, and one background hop.
func sampleTrace() Log {
	clock := &fakeClock{}
	tr := New(clock)

	tr.Begin(OpInsert, 0, "")
	tr.Record(TypePlace, 3, 1, "P1 C(0,1)")
	tr.Hop(0, 1, "insert", 40, 1, false)
	tr.Hop(1, 3, "insert", 40, 2, true) // 2 frames lost
	tr.End()

	clock.t = 4 * time.Millisecond
	tr.Begin(OpQuery, 5, "")
	tr.Hop(5, 3, "query", 16, 1, false)
	tr.Begin(OpFanout, 3, "P0")
	tr.Record(TypeResolve, 3, 7, "C(2,2)")
	tr.Broadcast(3, "query", 16, 1, 4, 0)
	tr.End()
	clock.t = 9 * time.Millisecond
	tr.Hop(3, 5, "reply", 120, 3, false)
	tr.End()

	tr.Hop(2, 6, "control", 8, 1, false) // background

	return tr.Events()
}

func TestAnalyzeAggregates(t *testing.T) {
	a, err := Analyze(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Roots) != 2 || len(a.ByID) != 3 {
		t.Fatalf("roots=%d spans=%d, want 2 roots, 3 spans", len(a.Roots), len(a.ByID))
	}
	wantKinds := map[string]KindTotals{
		"insert":  {Frames: 3, Bytes: 80, Lost: 2},
		"query":   {Frames: 2, Bytes: 32},
		"reply":   {Frames: 3, Bytes: 120},
		"control": {Frames: 1, Bytes: 8},
	}
	for k, want := range wantKinds {
		if got := a.ByKind[k]; got != want {
			t.Errorf("ByKind[%q] = %+v, want %+v", k, got, want)
		}
	}
	if got := a.TotalFrames(); got != 9 {
		t.Errorf("TotalFrames = %d, want 9", got)
	}
	if a.BackgroundFrames != 1 {
		t.Errorf("BackgroundFrames = %d, want 1", a.BackgroundFrames)
	}
	if a.Horizon != 9*time.Millisecond {
		t.Errorf("Horizon = %v", a.Horizon)
	}

	queries := a.RootsByOp(OpQuery)
	if len(queries) != 1 {
		t.Fatalf("query roots = %d", len(queries))
	}
	q := queries[0]
	// 1 query hop + 1 fan-out broadcast + 3 reply frames.
	if q.Hops() != 5 || q.HopsOwn != 4 {
		t.Errorf("query hops = %d (own %d), want 5 (own 4)", q.Hops(), q.HopsOwn)
	}
	if q.Duration() != 5*time.Millisecond {
		t.Errorf("query duration = %v, want 5ms", q.Duration())
	}
	ins := a.RootsByOp(OpInsert)[0]
	if ins.Hops() != 3 || ins.Lost() != 2 {
		t.Errorf("insert hops=%d lost=%d, want 3, 2", ins.Hops(), ins.Lost())
	}
}

func TestAnalyzeHistograms(t *testing.T) {
	a, err := Analyze(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	h := a.HopHistogram(OpQuery)
	if h.Total() != 1 || h.Quantile(50) != 5 {
		t.Errorf("query hop histogram: n=%d p50=%d, want 1, 5", h.Total(), h.Quantile(50))
	}
	d := a.DurationHistogram(OpQuery)
	if d.Quantile(50) != 5 {
		t.Errorf("query duration p50 = %dms, want 5", d.Quantile(50))
	}
	if a.HopHistogram(OpFail).Total() != 0 {
		t.Error("fail histogram not empty")
	}
}

func TestAnalyzeNodeRanking(t *testing.T) {
	a, err := Analyze(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	r := a.NodeRanking()
	if len(r) == 0 || r[0].Node != 3 {
		t.Fatalf("ranking head = %+v, want node 3", r[:1])
	}
	// Node 3: tx 1 broadcast frame + 3 reply frames; rx 1 query frame
	// (the 2-frame lost insert hop adds nothing to rx).
	if r[0].Tx != 4 || r[0].Rx != 1 {
		t.Errorf("node 3 load = tx %d rx %d, want 4, 1", r[0].Tx, r[0].Rx)
	}
	for i := 1; i < len(r); i++ {
		if r[i].Total() > r[i-1].Total() {
			t.Errorf("ranking not descending at %d", i)
		}
		if r[i].Total() == r[i-1].Total() && r[i].Node < r[i-1].Node {
			t.Errorf("tie at %d not ordered by node id", i)
		}
	}
}

func TestAnalyzeToleratesMalformedSpans(t *testing.T) {
	// An orphaned hop (its span_start was evicted or cut off) demotes to
	// background traffic and flags the analysis truncated.
	a, err := Analyze(LogOf([]Event{
		{Type: TypeHop, Span: 99, From: 0, To: 1, Kind: "query", Frames: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truncated {
		t.Error("orphaned hop did not mark the analysis truncated")
	}
	if a.BackgroundFrames != 1 {
		t.Errorf("orphaned hop frames = %d, want 1 background frame", a.BackgroundFrames)
	}

	// A re-used span id keeps the first definition.
	a, err = Analyze(LogOf([]Event{
		{Type: TypeSpanStart, Span: 1, Op: OpQuery, Node: 0},
		{Type: TypeSpanStart, Span: 1, Op: OpInsert, Node: 7},
		{Type: TypeSpanEnd, Span: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truncated {
		t.Error("duplicate span start did not mark the analysis truncated")
	}
	if len(a.Roots) != 1 || a.Roots[0].Op != OpQuery {
		t.Errorf("roots = %+v, want the first span definition kept", a.Roots)
	}
}

func TestAnalyzeUnclosedSpanEndsAtHorizon(t *testing.T) {
	a, err := Analyze(LogOf([]Event{
		{T: 1 * time.Millisecond, Type: TypeSpanStart, Span: 1, Op: OpQuery, Node: 0},
		{T: 9 * time.Millisecond, Type: TypeHop, Span: 1, From: 0, To: 1, Kind: "query", Frames: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truncated {
		t.Error("unclosed span did not mark the analysis truncated")
	}
	if got := a.ByID[1].Duration(); got != 8*time.Millisecond {
		t.Errorf("unclosed span duration = %v, want extension to the 9ms horizon", got)
	}
}

func TestWriteTree(t *testing.T) {
	a, err := Analyze(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := a.RootsByOp(OpQuery)[0].WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"query#2 node=5 hops=5 t=5ms",
		"  fanout#3 P0 node=3 hops=1",
		"    resolve C(2,2) node=3 matches=7",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tree missing %q in:\n%s", want, got)
		}
	}
}
