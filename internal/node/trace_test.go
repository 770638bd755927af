package node

import (
	"strings"
	"testing"
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
)

// tracedFixture is a repairFixture whose engine and network share one
// tracer, so per-hop records and causal spans land in the same stream.
type tracedFixture struct {
	*repairFixture
	tracer *trace.Tracer
}

func newTracedFixture(t testing.TB, n, nEvents int, seed int64, opts ...Option) *tracedFixture {
	t.Helper()
	src := rng.New(seed)
	layout, err := field.Generate(field.DefaultSpec(n), src.Fork("layout"))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	tr := trace.New(sched)
	net := network.New(layout, network.WithTracer(tr))
	router := gpsr.New(layout)
	opts = append(opts, WithTracer(tr))
	eng, err := NewEngine(net, router, sched, 3, src.Fork("system"), nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f := &repairFixture{layout: layout, sched: sched, net: net, router: router, engine: eng}
	evSrc := src.Fork("events")
	for i := 0; i < nEvents; i++ {
		e := event.New(evSrc.Float64(), evSrc.Float64(), evSrc.Float64())
		e.Seq = uint64(i + 1)
		if err := eng.Preload(evSrc.Intn(n), e); err != nil {
			t.Fatal(err)
		}
		f.events = append(f.events, e)
	}
	return &tracedFixture{repairFixture: f, tracer: tr}
}

// analyze runs the analyzer over the fixture's stream and fails the
// test on any structural problem.
func (f *tracedFixture) analyze(t testing.TB) *trace.Analysis {
	t.Helper()
	a, err := trace.Analyze(f.tracer.Events())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkBreakdowns asserts the attrib sum-to-total invariant for every
// breakdown and returns them.
func checkBreakdowns(t testing.TB, events trace.Log, a *trace.Analysis, opts attrib.Options) []attrib.Breakdown {
	t.Helper()
	bds := attrib.Attribute(events, a, opts)
	for _, bd := range bds {
		var sum time.Duration
		for _, d := range bd.Phases {
			if d < 0 {
				t.Fatalf("span %d: negative phase duration %v", bd.Span, d)
			}
			sum += d
		}
		if sum != bd.Total {
			t.Fatalf("span %d: phases sum %v, total %v", bd.Span, sum, bd.Total)
		}
		if bd.Total != bd.End-bd.Start {
			t.Fatalf("span %d: total %v, wall clock %v", bd.Span, bd.Total, bd.End-bd.Start)
		}
	}
	return bds
}

// TestTracedQuerySpansBalance runs a healthy traced workload and checks
// the fundamental span contract: every insert and query opens exactly
// one root span, every root span closes, the stream analyzes without
// truncation, and attribution accounts for each query's full wall
// clock.
func TestTracedQuerySpansBalance(t *testing.T) {
	f := newTracedFixture(t, 100, 200, 8101)
	src := rng.New(8102)

	const queries = 10
	done := 0
	for i := 0; i < queries; i++ {
		lo := src.Float64() * 0.7
		q := event.NewQuery(event.Span(lo, lo+0.2), event.Unspecified(), event.Unspecified())
		if err := f.engine.Query(src.Intn(100), q, func(_ []event.Event, _ time.Duration) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
	if done != queries {
		t.Fatalf("%d of %d queries completed", done, queries)
	}

	a := f.analyze(t)
	if a.Truncated {
		t.Fatal("healthy unbounded trace reported truncated")
	}
	nQuery := 0
	for _, s := range a.Roots {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Op == trace.OpQuery {
			nQuery++
		}
	}
	if nQuery != queries {
		t.Fatalf("%d query root spans, want %d", nQuery, queries)
	}

	bds := checkBreakdowns(t, f.tracer.Events(), a, attrib.Options{Ops: []trace.Op{trace.OpQuery}})
	if len(bds) != queries {
		t.Fatalf("%d breakdowns, want %d", len(bds), queries)
	}
	for _, bd := range bds {
		if bd.Total <= 0 {
			t.Fatalf("query span %d has zero wall clock", bd.Span)
		}
		if bd.Phases[attrib.PhaseTransmit] <= 0 {
			t.Errorf("query span %d transmitted nothing", bd.Span)
		}
		// Healthy network: no retries, no ARQ stalls, no repair.
		for _, p := range []attrib.Phase{attrib.PhaseARQ, attrib.PhaseRetry, attrib.PhaseRepair} {
			if bd.Phases[p] != 0 {
				t.Errorf("query span %d: healthy run charged %v to %v", bd.Span, bd.Phases[p], p)
			}
		}
	}
}

// TestTracedServiceModeChargesQueue turns on service mode and floods a
// burst of concurrent queries: contended nodes must show up as queue
// and service phases in the attribution, and the per-span sum-to-total
// invariant must survive the wait/serve records.
func TestTracedServiceModeChargesQueue(t *testing.T) {
	f := newTracedFixture(t, 100, 400, 8103)
	f.engine.EnableService(2 * time.Millisecond)
	src := rng.New(8104)

	const queries = 30
	done := 0
	for i := 0; i < queries; i++ {
		q := event.NewQuery(event.Span(0.1, 0.8), event.Unspecified(), event.Unspecified())
		if err := f.engine.Query(src.Intn(100), q, func(_ []event.Event, _ time.Duration) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
	if done != queries {
		t.Fatalf("%d of %d queries completed", done, queries)
	}

	a := f.analyze(t)
	bds := checkBreakdowns(t, f.tracer.Events(), a, attrib.Options{Ops: []trace.Op{trace.OpQuery}})
	var queue, service time.Duration
	for _, bd := range bds {
		queue += bd.Phases[attrib.PhaseQueue]
		service += bd.Phases[attrib.PhaseService]
	}
	if service <= 0 {
		t.Error("service mode charged no service time")
	}
	if queue <= 0 {
		t.Error("concurrent burst on a serial service queue charged no queueing time")
	}
}

// TestTracedFailoverChargesRetryAndRepair crashes the most loaded node
// under replication, then queries through the hole: the detour must be
// charged to retry sub-spans, the crash marker must open a repair
// window that Attribute reclassifies stalls into, and the repair
// protocol's completion must emit the closing "done" marker.
func TestTracedFailoverChargesRetryAndRepair(t *testing.T) {
	f := newTracedFixture(t, 60, 2000, 8105, WithReplication())
	src := rng.New(8106)

	victim := f.mostLoaded()
	f.crash(t, victim)

	const queries = 15
	done := 0
	for i := 0; i < queries; i++ {
		lo := src.Float64() * 0.6
		q := event.NewQuery(event.Span(lo, lo+0.3), event.Span(0, 1), event.Span(0, 1))
		if err := f.engine.Query(src.Intn(60), q, func(_ []event.Event, _ time.Duration) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
	if done != queries {
		t.Fatalf("%d of %d queries completed", done, queries)
	}

	events := f.tracer.Events()
	crash, repaired := false, false
	for _, ev := range events.Slice() {
		switch {
		case ev.Type == trace.TypeFault && ev.Detail == "crash":
			crash = true
		case ev.Type == trace.TypeRepair && ev.Detail == "done":
			repaired = true
		}
	}
	if !crash {
		t.Fatal("network.FailNode left no crash marker")
	}
	if !repaired {
		t.Fatal("repair protocol converged without a done marker")
	}
	windows := attrib.RepairWindows(events, f.sched.Now())
	if len(windows) == 0 {
		t.Fatal("no repair windows despite crash and done markers")
	}

	a := f.analyze(t)
	retrySpans := 0
	for _, s := range a.ByID {
		if s.Op == trace.OpRetry {
			retrySpans++
			if s.Detail == "" {
				t.Errorf("retry span %d has no route detail", s.ID)
			}
		}
	}
	if retrySpans == 0 {
		t.Error("failover produced no retry sub-spans")
	}

	bds := checkBreakdowns(t, events, a, attrib.Options{Ops: []trace.Op{trace.OpQuery}})
	var repair time.Duration
	for _, bd := range bds {
		repair += bd.Phases[attrib.PhaseRepair]
	}
	if repair <= 0 {
		t.Error("queries overlapping an open repair window charged no repair interference")
	}

	table := attrib.Blame(bds)
	s := table.String()
	if !strings.Contains(s, "p95") || !strings.Contains(s, "repair") {
		t.Errorf("blame table missing expected rows/columns:\n%s", s)
	}
}

// TestTracedInsertSpans checks inserts get their own root spans that
// close when the event is stored (including the mirror copy).
func TestTracedInsertSpans(t *testing.T) {
	f := newTracedFixture(t, 60, 0, 8107, WithReplication())
	src := rng.New(8108)
	for i := 0; i < 5; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		if err := f.engine.Insert(src.Intn(60), e, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()

	a := f.analyze(t)
	if a.Truncated {
		t.Fatal("insert trace truncated")
	}
	inserts := 0
	for _, s := range a.Roots {
		if s.Op != trace.OpInsert {
			continue
		}
		inserts++
		if s.End <= s.Start {
			t.Errorf("insert span %d has no duration", s.ID)
		}
	}
	if inserts != 5 {
		t.Fatalf("%d insert root spans, want 5", inserts)
	}
	checkBreakdowns(t, f.tracer.Events(), a, attrib.Options{Ops: []trace.Op{trace.OpInsert}})
}

// TestTracedRingPartialAnalysis drives a traced workload through a
// deliberately tiny ring: eviction must never break analysis or the
// attribution invariant, only mark the result truncated.
func TestTracedRingPartialAnalysis(t *testing.T) {
	src := rng.New(8110)
	layout, err := field.Generate(field.DefaultSpec(100), src.Fork("layout"))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	tr := trace.NewRing(sched, 64)
	net := network.New(layout, network.WithTracer(tr))
	eng, err := NewEngine(net, gpsr.New(layout), sched, 3, src.Fork("system"), nil, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	evSrc := src.Fork("events")
	for i := 0; i < 100; i++ {
		e := event.New(evSrc.Float64(), evSrc.Float64(), evSrc.Float64())
		e.Seq = uint64(i + 1)
		if err := eng.Preload(evSrc.Intn(100), e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		q := event.NewQuery(event.Span(0.2, 0.6), event.Unspecified(), event.Unspecified())
		if err := eng.Query(evSrc.Intn(100), q, func(_ []event.Event, _ time.Duration) {}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()

	if tr.Dropped() == 0 {
		t.Fatal("64-event ring dropped nothing under a 10-query load")
	}
	events := tr.Events()
	if events.Len() != 64 {
		t.Fatalf("ring retained %d events, want 64", events.Len())
	}
	a, err := trace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdowns(t, events, a, attrib.Options{})
}
