package node

import (
	"slices"
	"testing"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/rng"
)

// loadFixture preloads n events into both engines of a fixture.
func loadFixture(t *testing.T, f *fixture, n int, seed int64) {
	t.Helper()
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		e := event.Event{
			Values: []float64{src.Float64(), src.Float64(), src.Float64()},
			Seq:    uint64(i + 1),
		}
		origin := src.Intn(f.layout.N())
		if err := f.engine.Insert(origin, e, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.sync.Insert(origin, e); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
	f.noErrors(t)
}

// TestServiceModeResultsUnchanged: service mode changes timing only —
// query results must match the synchronous spec exactly.
func TestServiceModeResultsUnchanged(t *testing.T) {
	f := newFixture(t, 200, 300)
	loadFixture(t, f, 200, 301)
	f.engine.EnableService(2 * time.Millisecond)

	src := rng.New(302)
	for qi := 0; qi < 5; qi++ {
		lo := src.Float64() * 0.7
		q := event.NewQuery(event.Span(lo, lo+0.3), event.Span(0, 1), event.Span(0, 1))
		sink := src.Intn(200)
		want, err := f.sync.Query(sink, q)
		if err != nil {
			t.Fatal(err)
		}
		var got []event.Event
		if err := f.engine.Query(sink, q, func(results []event.Event, _ time.Duration) {
			got = results
		}); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
		f.noErrors(t)
		if len(got) != len(want) {
			t.Fatalf("query %d: service mode returned %d results, spec %d", qi, len(got), len(want))
		}
		wantSet := make(map[uint64]bool, len(want))
		for _, e := range want {
			wantSet[e.Seq] = true
		}
		for _, e := range got {
			if !wantSet[e.Seq] {
				t.Fatalf("query %d: result %d not in spec set", qi, e.Seq)
			}
		}
	}
}

// TestServiceModeAddsDelay: with per-packet service time the same query
// takes strictly longer than in infinite-capacity mode, and concurrent
// queries build observable queues.
func TestServiceModeAddsDelay(t *testing.T) {
	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))

	elapsedAt := func(perPacket time.Duration) time.Duration {
		f := newFixture(t, 200, 310)
		loadFixture(t, f, 200, 311)
		f.engine.EnableService(perPacket)
		var elapsed time.Duration
		if err := f.engine.Query(0, q, func(_ []event.Event, d time.Duration) { elapsed = d }); err != nil {
			t.Fatal(err)
		}
		f.sched.Run()
		f.noErrors(t)
		return elapsed
	}

	fast := elapsedAt(0)
	slow := elapsedAt(2 * time.Millisecond)
	if fast <= 0 || slow <= fast {
		t.Fatalf("service mode did not add delay: %v (off) vs %v (on)", fast, slow)
	}
}

func TestServiceModeQueueDepth(t *testing.T) {
	f := newFixture(t, 200, 320)
	loadFixture(t, f, 200, 321)

	// Outside service mode queues do not exist.
	if d := f.engine.QueueDepth(0); d != 0 {
		t.Fatalf("depth %d outside service mode", d)
	}
	if f.engine.MaxQueueDepth() != 0 {
		t.Fatal("max depth nonzero outside service mode")
	}

	f.engine.EnableService(5 * time.Millisecond)
	// A burst of identical queries funnels through the same splitters;
	// serial per-node service must queue them.
	q := event.NewQuery(event.Span(0.4, 0.6), event.Span(0, 1), event.Span(0, 1))
	done := 0
	for i := 0; i < 8; i++ {
		if err := f.engine.Query(0, q, func(_ []event.Event, _ time.Duration) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
	f.noErrors(t)
	if done != 8 {
		t.Fatalf("%d of 8 queries completed", done)
	}
	if f.engine.MaxQueueDepth() < 2 {
		t.Fatalf("max queue depth %d, want ≥ 2 under a burst", f.engine.MaxQueueDepth())
	}
	// Drained: every per-node queue is empty again.
	for i := 0; i < f.layout.N(); i++ {
		if d := f.engine.QueueDepth(i); d != 0 {
			t.Fatalf("node %d still has depth %d after drain", i, d)
		}
	}
}

func TestSplittersFor(t *testing.T) {
	f := newFixture(t, 200, 330)
	loadFixture(t, f, 50, 331)

	full := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	// The returned slice is the engine's scratch, good until the next call.
	sps := slices.Clone(f.engine.SplittersFor(7, full))
	if len(sps) == 0 {
		t.Fatal("full-domain query has no splitters")
	}
	// De-duplicated.
	seen := make(map[int]bool)
	for _, s := range sps {
		if seen[s] {
			t.Fatalf("splitter %d repeated in %v", s, sps)
		}
		seen[s] = true
	}
	// Deterministic for the same sink and query.
	f.engine.SplittersFor(11, event.NewQuery(event.Span(0.1, 0.2), event.Span(0, 0.1), event.Span(0, 0.1)))
	if again := f.engine.SplittersFor(7, full); !slices.Equal(again, sps) {
		t.Fatalf("SplittersFor not stable: %v vs %v", sps, again)
	}
}
