package dim

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

func TestDIMTraceSpansAndCounters(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	net := network.New(l, network.WithTracer(tr))
	s, err := New(net, gpsr.New(l), 3, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(82)
	for i := 0; i < 100; i++ {
		if err := s.Insert(src.Intn(300), event.New(src.Float64(), src.Float64(), src.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	q := event.NewQuery(event.Span(0.2, 0.6), event.Span(0, 1), event.Span(0, 1))
	matches, err := s.Query(4, q)
	if err != nil {
		t.Fatal(err)
	}

	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.RootsByOp(trace.OpInsert)); got != 100 {
		t.Errorf("insert spans = %d, want 100", got)
	}
	queries := a.RootsByOp(trace.OpQuery)
	if len(queries) != 1 {
		t.Fatalf("query spans = %d, want 1", len(queries))
	}
	// Resolve records across the query span must add up to the result set.
	var resolved int
	for _, it := range queries[0].Items {
		if it.Record != nil && it.Record.Type == trace.TypeResolve {
			resolved += int(it.Record.N)
		}
	}
	if resolved != len(matches) {
		t.Errorf("resolve records account for %d matches, query returned %d", resolved, len(matches))
	}
	// Every insert span carries a zone placement record.
	for _, ins := range a.RootsByOp(trace.OpInsert)[:5] {
		var placed bool
		for _, it := range ins.Items {
			if it.Record != nil && it.Record.Type == trace.TypePlace {
				placed = true
			}
		}
		if !placed {
			t.Errorf("insert span %d has no placement record", ins.ID)
		}
	}
	// Trace totals must match the counters, DIM and Pool alike.
	c := net.Snapshot()
	for _, k := range network.Kinds() {
		if got, want := a.ByKind[k.String()].Frames, c.Messages[k]; got != want {
			t.Errorf("%v frames: trace %d, counters %d", k, got, want)
		}
	}
}
