package node

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// fixture builds an async engine and a synchronous pool.System over the
// same deployment with the same pivots.
type fixture struct {
	layout *field.Layout
	sched  *sim.Scheduler
	engine *Engine
	sync   *pool.System
	asyncN *network.Network
	syncN  *network.Network
}

func newFixture(t testing.TB, n int, seed int64) *fixture {
	t.Helper()
	layout, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	router := gpsr.New(layout)
	sched := sim.NewScheduler()
	asyncNet := network.New(layout)
	syncNet := network.New(layout)

	syncSys, err := pool.New(syncNet, router, 3, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	var pivots []pool.CellID
	for _, p := range syncSys.Pools() {
		pivots = append(pivots, p.Pivot)
	}
	eng, err := NewEngine(asyncNet, router, sched, 3, nil, pivots)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{layout: layout, sched: sched, engine: eng, sync: syncSys, asyncN: asyncNet, syncN: syncNet}
}

func (f *fixture) noErrors(t *testing.T) {
	t.Helper()
	if errs := f.engine.Errors(); len(errs) > 0 {
		t.Fatalf("engine errors: %v", errs)
	}
}

func TestEngineMatchesSpecOnWorkload(t *testing.T) {
	f := newFixture(t, 300, 200)
	src := rng.New(201)

	// Insert the same events into both implementations.
	var all []event.Event
	for i := 0; i < 300; i++ {
		e := event.Event{
			Values: []float64{src.Float64(), src.Float64(), src.Float64()},
			Seq:    uint64(i + 1),
		}
		all = append(all, e)
		origin := src.Intn(300)
		if err := f.engine.Insert(origin, e, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.sync.Insert(origin, e); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run() // flush all inserts
	f.noErrors(t)

	queries := []event.Query{
		event.NewQuery(event.Span(0.2, 0.5), event.Span(0.1, 0.9), event.Span(0, 1)),
		event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84)),
		event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1)),
		event.NewQuery(event.Span(0.9, 0.95), event.Span(0.9, 0.95), event.Span(0.9, 0.95)),
	}
	for qi, q := range queries {
		sink := src.Intn(300)
		want, err := f.sync.Query(sink, q)
		if err != nil {
			t.Fatal(err)
		}

		var got []event.Event
		doneAt := time.Duration(-1)
		if err := f.engine.Query(sink, q, func(results []event.Event, elapsed time.Duration) {
			got = results
			doneAt = elapsed
		}); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
		f.noErrors(t)
		if doneAt < 0 {
			t.Fatalf("query %d never completed", qi)
		}

		wantSet := make(map[uint64]bool, len(want))
		for _, e := range want {
			wantSet[e.Seq] = true
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: async %d results, sync %d", qi, len(got), len(want))
		}
		// Each expected event exactly once: a cell's matches are gathered
		// while other cells are still being served, so a snapshot that
		// aliased serving scratch would show up as a duplicate here.
		for _, e := range got {
			if !wantSet[e.Seq] {
				t.Fatalf("query %d: async returned %d twice, or it is not in sync results", qi, e.Seq)
			}
			delete(wantSet, e.Seq)
		}
		// Completion time must reflect at least one network round trip
		// unless nothing was relevant.
		if len(want) > 0 && doneAt <= 0 {
			t.Errorf("query %d: zero elapsed time", qi)
		}
	}
}

func TestAsyncLatencyBelowSequentialSum(t *testing.T) {
	f := newFixture(t, 300, 202)
	src := rng.New(203)
	for i := 0; i < 300; i++ {
		e := event.Event{Values: []float64{src.Float64(), src.Float64(), src.Float64()}, Seq: uint64(i + 1)}
		if err := f.engine.Insert(src.Intn(300), e, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()

	// Full-domain query: many cells answer. The elapsed time must be far
	// below (total messages × hop latency) because branches run in
	// parallel.
	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	before := f.asyncN.Snapshot()
	var elapsed time.Duration
	if err := f.engine.Query(0, q, func(_ []event.Event, d time.Duration) { elapsed = d }); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	f.noErrors(t)
	diff := f.asyncN.Diff(before)
	total := diff.Messages[network.KindQuery] + diff.Messages[network.KindReply]
	sequential := time.Duration(total) * DefaultHopLatency
	if elapsed <= 0 || elapsed >= sequential/2 {
		t.Errorf("elapsed %v not well below sequential bound %v (total %d msgs)", elapsed, sequential, total)
	}
}

func TestConcurrentQueriesInterleave(t *testing.T) {
	f := newFixture(t, 300, 204)
	src := rng.New(205)
	for i := 0; i < 200; i++ {
		e := event.Event{Values: []float64{src.Float64(), src.Float64(), src.Float64()}, Seq: uint64(i + 1)}
		if err := f.engine.Insert(src.Intn(300), e, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()

	// Launch many queries before running the scheduler: all in flight at
	// once.
	const queries = 20
	done := 0
	for i := 0; i < queries; i++ {
		lo := src.Float64() * 0.7
		q := event.NewQuery(event.Span(lo, lo+0.2), event.Unspecified(), event.Unspecified())
		if err := f.engine.Query(src.Intn(300), q, func(_ []event.Event, _ time.Duration) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
	f.noErrors(t)
	if done != queries {
		t.Fatalf("%d of %d concurrent queries completed", done, queries)
	}
}

func TestInsertCompletionCallback(t *testing.T) {
	f := newFixture(t, 300, 206)
	stored := false
	e := event.Event{Values: []float64{0.4, 0.3, 0.1}, Seq: 1}
	if err := f.engine.Insert(5, e, func() { stored = true }); err != nil {
		t.Fatal(err)
	}
	if stored {
		t.Fatal("insert completed before the scheduler ran")
	}
	f.sched.Run()
	if !stored {
		t.Fatal("insert never completed")
	}
	if f.asyncN.Snapshot().Messages[network.KindInsert] == 0 {
		t.Error("insert moved no packets")
	}
}

func TestEngineValidation(t *testing.T) {
	f := newFixture(t, 300, 207)
	if err := f.engine.Insert(0, event.Event{Values: []float64{2, 0, 0}}, nil); err == nil {
		t.Error("invalid event accepted")
	}
	if err := f.engine.Insert(0, event.Event{Values: []float64{0.1, 0.2}}, nil); err == nil {
		t.Error("wrong dims accepted")
	}
	if err := f.engine.Query(0, event.NewQuery(event.Span(0.9, 0.1), event.Span(0, 1), event.Span(0, 1)), nil); err == nil {
		t.Error("invalid query accepted")
	}
	if err := f.engine.Query(0, event.NewQuery(event.Span(0, 1)), nil); err == nil {
		t.Error("wrong query dims accepted")
	}
}

func TestEmptyQueryCompletes(t *testing.T) {
	f := newFixture(t, 300, 208)
	// No events stored, and a query touching nothing still completes.
	completed := false
	q := event.NewQuery(event.Span(0.01, 0.02), event.Span(0.9, 0.91), event.Span(0.9, 0.91))
	if err := f.engine.Query(3, q, func(results []event.Event, _ time.Duration) {
		completed = true
		if len(results) != 0 {
			t.Errorf("results = %v", results)
		}
	}); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	if !completed {
		t.Fatal("empty query never completed")
	}
}

func TestEngineRandomPivots(t *testing.T) {
	layout, err := field.Generate(field.DefaultSpec(300), rng.New(209))
	if err != nil {
		t.Fatal(err)
	}
	router := gpsr.New(layout)
	engSrc, specSrc := rng.New(210), rng.New(210)
	eng, err := NewEngine(network.New(layout), router, sim.NewScheduler(), 3, engSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Pools()) != 3 {
		t.Fatalf("pools = %v", eng.Pools())
	}
	// The same seed gives the synchronous system the same pivots and
	// leaves both sources at the same draw, so whatever a caller draws
	// next (events, sinks) stays paired across the two implementations.
	spec, err := pool.New(network.New(layout), router, 3, specSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(eng.Pools(), spec.Pools()) {
		t.Errorf("pools diverge at one seed: engine %v, spec %v", eng.Pools(), spec.Pools())
	}
	if a, b := engSrc.Int63(), specSrc.Int63(); a != b {
		t.Errorf("construction consumed different draws: next is %d vs %d", a, b)
	}
}

// TestHopBudgetMatchesUnicast ties the actor engine's per-hop retry
// budget to dcs's: an insert one hop from its index node, over an
// always-lossy radio, puts exactly dcs.MaxRetransmissions frames on the
// air and gives up, and so does dcs.UnicastOpts over the same hop.
func TestHopBudgetMatchesUnicast(t *testing.T) {
	layout, err := field.Generate(field.DefaultSpec(300), rng.New(211))
	if err != nil {
		t.Fatal(err)
	}
	router := gpsr.New(layout)
	lossy := func() *network.Network {
		return network.New(layout, network.WithLossRate(0.999999999, rng.New(7)))
	}
	net, sched := lossy(), sim.NewScheduler()
	eng, err := NewEngine(net, router, sched, 3, rng.New(212), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.New(0.9, 0.5, 0.1)
	ev.Seq = 1
	_, index, err := eng.Place(0, ev)
	if err != nil {
		t.Fatal(err)
	}
	origin := layout.Neighbors(index)[0]
	if res, err := router.RouteToNode(origin, index); err != nil || res.Hops() != 1 {
		t.Fatalf("route %d→%d: %v, %v; want one hop", origin, index, res.Path, err)
	}

	if err := eng.Insert(origin, ev, func() { t.Error("an insert over an always-lossy hop was acked") }); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if errs := eng.Errors(); len(errs) > 0 {
		t.Fatalf("engine errors: %v", errs)
	}
	if got := net.Messages(network.KindInsert); got != dcs.MaxRetransmissions {
		t.Errorf("the actor engine put %d frames on the air, want %d", got, dcs.MaxRetransmissions)
	}

	ref := lossy()
	sent, err := dcs.UnicastOpts(ref, router, origin, index, network.KindInsert, dcs.EventBytes(3), dcs.TxOptions{})
	if !errors.Is(err, dcs.ErrHopExhausted) {
		t.Fatalf("UnicastOpts: %v, want ErrHopExhausted", err)
	}
	if got := ref.Messages(network.KindInsert); sent != dcs.MaxRetransmissions || got != dcs.MaxRetransmissions {
		t.Errorf("UnicastOpts sent %d frames, the radio counted %d, want %d", sent, got, dcs.MaxRetransmissions)
	}
	if a, b := net.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("the two radios differ: actor engine %+v, UnicastOpts %+v", a, b)
	}
}
