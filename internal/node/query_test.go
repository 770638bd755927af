package node

import (
	"slices"
	"testing"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/workload"
)

// seqs returns the sorted sequence numbers of a result set.
func seqs(events []event.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, ev := range events {
		out[i] = ev.Seq
	}
	slices.Sort(out)
	return out
}

// idle reports what the engine still holds once the scheduler has run
// dry: every record must be back in its arena.
func (e *Engine) idle(t testing.TB) {
	t.Helper()
	for _, a := range []struct {
		name string
		live int
	}{
		{"tasks", e.tasks.live()}, {"writes", e.writes.live()}, {"repair packets", e.repairSent.live()},
		{"operations", e.ops.live()}, {"gathers", e.gathers.live()}, {"legs", e.legs.live()},
	} {
		if a.live != 0 {
			t.Errorf("%d %s still in flight after the drain", a.live, a.name)
		}
	}
}

// TestQueryReentrantOnDone is the closed-loop shape of the load harness:
// every onDone issues its client's next query on the spot, from inside
// the engine, so a slot released a moment ago is handed out again while
// the releasing call is still on the stack. Whatever a recycled record
// kept that it should not have shows up as a result set that differs
// from the synchronous specification's.
func TestQueryReentrantOnDone(t *testing.T) {
	const clients, rounds = 4, 200
	f := newFixture(t, 300, 220)
	loadFixture(t, f, 900, 221)
	qgen := workload.NewQueries(rng.New(222), 3)
	sinks := rng.New(223)
	type placed struct {
		sink int
		q    event.Query
	}
	script := make([]placed, clients*rounds)
	for i := range script {
		q := qgen.ExactMatch(workload.ExponentialSizes)
		if i%3 == 0 {
			var err error
			if q, err = qgen.MPartial(1 + i%2); err != nil {
				t.Fatal(err)
			}
		}
		script[i] = placed{sink: sinks.Intn(300), q: q}
	}
	got := make([][]event.Event, len(script))
	var issue func(i int)
	issue = func(i int) {
		if i >= len(script) {
			return
		}
		err := f.engine.Query(script[i].sink, script[i].q, func(results []event.Event, _ time.Duration) {
			got[i] = results
			issue(i + clients)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < clients; c++ {
		issue(c)
	}
	f.sched.Run()
	f.noErrors(t)
	f.engine.idle(t)
	for i, pq := range script {
		want, err := f.sync.Query(pq.sink, pq.q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(seqs(got[i]), seqs(want)) {
			t.Fatalf("query %d (%v from %d): actor returned %d events, spec %d", i, pq.q, pq.sink, len(got[i]), len(want))
		}
		if len(got[i]) != cap(got[i]) {
			t.Fatalf("query %d: result has len %d, cap %d; want an exact-size copy", i, len(got[i]), cap(got[i]))
		}
	}
}

// TestRecycledRecordsAreInert pins what a released slot looks like: the
// zero record apart from empty reusable buffers, so an exchange that
// settles on it late — a bug — panics on the spot instead of stepping
// whichever query holds the slot next.
func TestRecycledRecordsAreInert(t *testing.T) {
	f := newFixture(t, 300, 224)
	loadFixture(t, f, 600, 225)
	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	var results []event.Event
	if err := f.engine.Query(7, q, func(r []event.Event, _ time.Duration) { results = r }); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	f.engine.idle(t)
	if len(results) != 600 {
		t.Fatalf("full-domain query returned %d of 600 events", len(results))
	}

	e := f.engine
	for i := int32(0); i < e.legs.used; i++ {
		if l := e.legs.at(i); l.stage != stageFree || l.matches != nil || l.gather != 0 || l.key.Dim != 0 {
			t.Fatalf("released leg %d keeps state: %+v", i, *l)
		}
	}
	for i := int32(0); i < e.gathers.used; i++ {
		g := e.gathers.at(i)
		if g.stage != stageFree || g.cellsLeft != 0 || g.matches != 0 || len(g.served) != 0 {
			t.Fatalf("released gather %d keeps state: %+v", i, *g)
		}
		for _, sc := range g.served[:cap(g.served)] {
			if sc.matches != nil {
				t.Fatalf("released gather %d still pins a cell's matches", i)
			}
		}
	}
	for i := int32(0); i < e.ops.used; i++ {
		op := e.ops.at(i)
		if op.live || op.onDone != nil || op.matches != 0 || len(op.parts) != 0 || op.comp.Unreached != nil {
			t.Fatalf("released operation %d keeps state: %+v", i, *op)
		}
		for _, part := range op.parts[:cap(op.parts)] {
			if part != nil {
				t.Fatalf("released operation %d still pins a cell's matches", i)
			}
		}
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a released slot did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("a leg's exchange settling", func() { e.settle(recLeg, 0, nil) })
	mustPanic("a leg's exchange failing", func() { e.settle(recLeg, 0, dcs.ErrUnreachable) })
	mustPanic("a gather's exchange settling", func() { e.settle(recGather, 0, nil) })
	mustPanic("an operation finishing", func() { e.finish(0) })
}

// TestActorQuerySteadyAllocs bounds what a query costs the allocator once
// the arenas are warm. The bound, per query: the Query wrapper around the
// caller's callback, the exact-size result slice when there is a result,
// and one exact-size snapshot per cell that had a match — a reply
// outlives the event that served it, so those are the copies that cannot
// be shared. Everything else — operation, gathers, legs, exchanges, the
// resolved plan, the served lists — is recycled.
func TestActorQuerySteadyAllocs(t *testing.T) {
	const wave = 64
	f := newFixture(t, 900, 226)
	loadFixture(t, f, 2700, 227)
	qgen := workload.NewQueries(rng.New(228), 3)
	sinks := rng.New(229)
	type placed struct {
		sink int
		q    event.Query
	}
	queries := make([]placed, wave)
	bound := 0
	for i := range queries {
		q := qgen.ExactMatch(workload.ExponentialSizes)
		queries[i] = placed{sink: sinks.Intn(900), q: q}
		var plan pool.Plan
		if err := f.engine.Resolve(q, &plan); err != nil {
			t.Fatal(err)
		}
		bound++ // the Query wrapper
		matched := false
		for _, fo := range plan.Fanouts {
			for _, c := range fo.Cells {
				key := pool.Key{Dim: fo.Pool.Dim, Cell: c}
				if len(f.engine.AppendHeldMatches(nil, plan.Query, key, f.engine.IndexNode(c))) > 0 {
					bound++ // the cell's snapshot
					matched = true
				}
			}
		}
		if matched {
			bound++ // the result slice
		}
	}
	done := 0
	onDone := func([]event.Event, time.Duration) { done++ }
	run := func() {
		for _, pq := range queries {
			if err := f.engine.Query(pq.sink, pq.q, onDone); err != nil {
				t.Fatal(err)
			}
		}
		f.sched.Run()
	}
	// A recycled slot keeps buffers (a task's route, a gather's served
	// list, an operation's plan) sized by the largest query it has held,
	// and slots are handed out in release order, so it takes a few dozen
	// waves until every slot has met the largest.
	const warm = 128
	for i := 0; i < warm; i++ {
		run()
	}
	got := testing.AllocsPerRun(5, run)
	if done != (warm+6)*wave {
		t.Fatalf("%d of %d queries completed", done, (warm+6)*wave)
	}
	if int(got) > bound {
		t.Errorf("a warm %d-query wave allocates %v times; wrappers, results and cell snapshots account for %d", wave, got, bound)
	}
	t.Logf("allocs per wave %v, bound %d (%.1f per query)", got, bound, got/wave)
}
