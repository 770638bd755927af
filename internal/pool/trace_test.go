package pool

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

// newTracedSystem wires one tracer into both the radio layer and the
// Pool system, the way experiment.TraceRun does.
func newTracedSystem(t testing.TB, n int, seed int64, opts ...Option) (*System, *network.Network, *trace.Tracer) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	net := network.New(l, network.WithTracer(tr))
	s, err := New(net, gpsr.New(l), 3, rng.New(seed+1), append(opts, WithTracer(tr))...)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, tr
}

func TestInsertTracesPlacement(t *testing.T) {
	s, _, tr := newTracedSystem(t, 300, 71)
	if err := s.Insert(0, event.New(0.9, 0.2, 0.1)); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	roots := a.RootsByOp(trace.OpInsert)
	if len(roots) != 1 {
		t.Fatalf("insert roots = %d, want 1", len(roots))
	}
	span := roots[0]
	if span.Node != 0 {
		t.Errorf("insert span origin = %d, want 0", span.Node)
	}
	var place *trace.Record
	for _, it := range span.Items {
		if it.Record != nil && it.Record.Type == trace.TypePlace {
			place = it.Record
		}
	}
	if place == nil {
		t.Fatal("no placement record in insert span")
	}
	// Greatest value is dim 1 (0.9): Theorem 3.1 places in Pool 1.
	if place.N != 1 {
		t.Errorf("placement pool = %d, want 1", place.N)
	}
	cell := s.Pools()[0].InsertCell(0.9, 0.2)
	if int(place.Node) != s.IndexNode(cell) {
		t.Errorf("placement index node = %d, want %d", place.Node, s.IndexNode(cell))
	}
	if span.Hops() == 0 {
		t.Error("insert span carries no routing hops")
	}
}

func TestQueryTracesFanoutAndResolve(t *testing.T) {
	s, _, tr := newTracedSystem(t, 300, 72)
	src := rng.New(73)
	for i := 0; i < 200; i++ {
		if err := s.Insert(src.Intn(300), event.New(src.Float64(), src.Float64(), src.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert(9, event.New(0.3, 0.7, 0.5)); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	// An exact-match query: Theorem 3.2 resolves it in a single Pool.
	q := event.NewQuery(event.PointRange(0.3), event.PointRange(0.7), event.PointRange(0.5))
	matches, err := s.Query(5, q)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	roots := a.RootsByOp(trace.OpQuery)
	if len(roots) != 1 {
		t.Fatalf("query roots = %d, want 1", len(roots))
	}
	qs := roots[0]
	if qs.Node != 5 {
		t.Errorf("query span sink = %d, want 5", qs.Node)
	}

	var fanouts, resolves, replies, resolved int
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		for _, it := range s.Items {
			if it.Child != nil {
				if it.Child.Op == trace.OpFanout {
					fanouts++
				}
				walk(it.Child)
				continue
			}
			switch it.Record.Type {
			case trace.TypeResolve:
				resolves++
				resolved += int(it.Record.N)
			case trace.TypeReply:
				replies++
			}
		}
	}
	walk(qs)
	// An exact-match query touches exactly one Pool (Theorem 3.2).
	if fanouts != 1 {
		t.Errorf("fan-out sub-spans = %d, want 1", fanouts)
	}
	if resolves == 0 || replies != 1 {
		t.Errorf("resolves = %d, replies = %d", resolves, replies)
	}
	if len(matches) == 0 {
		t.Error("exact-match query found nothing; expected the seeded event")
	}
	if resolved != len(matches) {
		t.Errorf("resolve records account for %d matches, query returned %d", resolved, len(matches))
	}
}

func TestSubscribeAndFailSpans(t *testing.T) {
	s, _, tr := newTracedSystem(t, 300, 74, WithReplication())
	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	sub, err := s.Subscribe(3, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(7, event.New(0.5, 0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode(11); err != nil {
		t.Fatal(err)
	}
	if err := s.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []trace.Op{trace.OpSubscribe, trace.OpInsert, trace.OpFail, trace.OpUnsubscribe} {
		if len(a.RootsByOp(want)) != 1 {
			t.Errorf("%s roots = %d, want 1", want, len(a.RootsByOp(want)))
		}
	}
	// The insert that matched the standing query must carry a notify record.
	ins := a.RootsByOp(trace.OpInsert)[0]
	var notified bool
	for _, it := range ins.Items {
		if it.Record != nil && it.Record.Type == trace.TypeNotify && it.Record.Node == 3 {
			notified = true
		}
	}
	if !notified {
		t.Error("matching insert has no notify record for sink 3")
	}
	// The failure span owns a fault record and any recovery traffic.
	fail := a.RootsByOp(trace.OpFail)[0]
	var fault bool
	for _, it := range fail.Items {
		if it.Record != nil && it.Record.Type == trace.TypeFault && it.Record.Node == 11 {
			fault = true
		}
	}
	if !fault {
		t.Error("failure span has no fault record")
	}
}

// TestPoolTraceMatchesCounters is the end-to-end consistency check at the
// Pool level: per-kind frame totals derived from the trace must equal the
// radio layer's counters exactly.
func TestPoolTraceMatchesCounters(t *testing.T) {
	s, net, tr := newTracedSystem(t, 300, 75)
	src := rng.New(76)
	for i := 0; i < 150; i++ {
		if err := s.Insert(src.Intn(300), event.New(src.Float64(), src.Float64(), src.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		q := event.NewQuery(event.Span(0, 0.5), event.Span(0.2, 0.9), event.Unspecified())
		if _, err := s.Query(src.Intn(300), q); err != nil {
			t.Fatal(err)
		}
	}
	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	c := net.Snapshot()
	for _, k := range network.Kinds() {
		if got, want := a.ByKind[k.String()].Frames, c.Messages[k]; got != want {
			t.Errorf("%v frames: trace %d, counters %d", k, got, want)
		}
		if got, want := a.ByKind[k.String()].Bytes, c.Bytes[k]; got != want {
			t.Errorf("%v bytes: trace %d, counters %d", k, got, want)
		}
	}
	if a.BackgroundFrames != 0 {
		t.Errorf("background frames = %d; all Pool traffic should be spanned", a.BackgroundFrames)
	}
}

func TestUntracedSystemUnaffected(t *testing.T) {
	// Two identical systems, one traced: behaviour and counters must match.
	plain, plainNet := newSystem(t, 300, 77)
	traced, tracedNet, _ := newTracedSystem(t, 300, 77)
	src1, src2 := rng.New(78), rng.New(78)
	for i := 0; i < 100; i++ {
		e := event.New(src1.Float64(), src1.Float64(), src1.Float64())
		if err := plain.Insert(src1.Intn(300), e); err != nil {
			t.Fatal(err)
		}
		e2 := event.New(src2.Float64(), src2.Float64(), src2.Float64())
		if err := traced.Insert(src2.Intn(300), e2); err != nil {
			t.Fatal(err)
		}
	}
	q := event.NewQuery(event.Span(0.1, 0.8), event.Span(0, 1), event.Span(0, 1))
	r1, err := plain.Query(4, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := traced.Query(4, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Errorf("results diverge: %d vs %d", len(r1), len(r2))
	}
	c1, c2 := plainNet.Snapshot(), tracedNet.Snapshot()
	for _, k := range network.Kinds() {
		if c1.Messages[k] != c2.Messages[k] {
			t.Errorf("%v messages diverge: %d vs %d", k, c1.Messages[k], c2.Messages[k])
		}
	}
}
