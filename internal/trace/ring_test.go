package trace

import (
	"testing"
	"time"
)

func TestRingEvictsOldest(t *testing.T) {
	clock := &fakeClock{}
	tr := NewRing(clock, 4)
	if tr.Capacity() != 4 {
		t.Fatalf("Capacity = %d, want 4", tr.Capacity())
	}
	for i := 0; i < 7; i++ {
		clock.t = time.Duration(i) * time.Millisecond
		tr.Hop(i, i+1, "query", 8, 1, false)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events().Slice()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := time.Duration(i+3) * time.Millisecond
		if ev.T != want {
			t.Errorf("event %d at %v, want %v (oldest-first order)", i, ev.T, want)
		}
	}
}

func TestRingUnderCapacityBehavesLikeUnbounded(t *testing.T) {
	tr := NewRing(nil, 16)
	tr.Begin(OpQuery, 0, "")
	tr.Hop(0, 1, "query", 8, 1, false)
	tr.End()
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d before wrap", tr.Dropped())
	}
	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncated || len(a.Roots) != 1 {
		t.Errorf("unwrapped ring analysis: truncated=%v roots=%d", a.Truncated, len(a.Roots))
	}
}

// TestRingEvictedTraceAnalyzes is the flight-recorder contract: after
// eviction claims span starts, Analyze still returns a usable partial
// Analysis instead of erroring.
func TestRingEvictedTraceAnalyzes(t *testing.T) {
	clock := &fakeClock{}
	// Capacity deliberately not a multiple of the 4 events a query
	// emits, so the surviving window starts mid-span.
	tr := NewRing(clock, 6)
	for q := 0; q < 10; q++ {
		clock.t = time.Duration(q) * time.Millisecond
		tr.Begin(OpQuery, q, "")
		tr.Hop(q, q+1, "query", 8, 1, false)
		tr.Hop(q+1, q, "reply", 16, 1, false)
		tr.End()
	}
	if tr.Dropped() == 0 {
		t.Fatal("ring never wrapped")
	}
	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truncated {
		t.Error("evicted trace not flagged truncated")
	}
	if len(a.Roots) == 0 {
		t.Error("no surviving spans reconstructed")
	}
}

func TestRingReset(t *testing.T) {
	tr := NewRing(nil, 2)
	tr.Hop(0, 1, "query", 8, 1, false)
	tr.Hop(1, 2, "query", 8, 1, false)
	tr.Hop(2, 3, "query", 8, 1, false)
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after reset: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Hop(4, 5, "query", 8, 1, false)
	if evs := tr.Events().Slice(); len(evs) != 1 || evs[0].From != 4 {
		t.Errorf("post-reset events = %+v", evs)
	}
	if NewRing(nil, -3).Capacity() != 1 {
		t.Error("non-positive capacity not clamped to 1")
	}
}

func TestExplicitSpanAPI(t *testing.T) {
	var nilTr *Tracer
	if nilTr.BeginAt(0, OpQuery, 1, "") != 0 || nilTr.CurrentSpan() != 0 {
		t.Error("nil tracer explicit-span methods not inert")
	}
	nilTr.PushSpan(3)
	nilTr.PopSpan()
	nilTr.EndSpan(3)
	nilTr.RecordAt(time.Second, TypeWait, 1, 0, "")
	if nilTr.Dropped() != 0 || nilTr.Capacity() != 0 {
		t.Error("nil tracer ring accessors not inert")
	}

	clock := &fakeClock{}
	tr := New(clock)
	root := tr.BeginAt(0, OpQuery, 5, "q")
	if root == 0 {
		t.Fatal("BeginAt returned 0")
	}
	if tr.CurrentSpan() != 0 {
		t.Error("BeginAt touched the ambient span stack")
	}
	// A later callback re-enters the span explicitly.
	clock.t = 2 * time.Millisecond
	tr.PushSpan(root)
	if tr.CurrentSpan() != root {
		t.Error("PushSpan did not set the ambient span")
	}
	tr.Hop(5, 6, "query", 8, 1, false)
	child := tr.BeginAt(root, OpRetry, 6, "mirror")
	tr.PopSpan()
	if tr.CurrentSpan() != 0 {
		t.Error("PopSpan did not restore the ambient span")
	}
	tr.EndSpan(child)
	clock.t = 7 * time.Millisecond
	tr.EndSpan(root)
	tr.EndSpan(0) // no-op

	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	q := a.ByID[root]
	if q == nil || q.Duration() != 7*time.Millisecond {
		t.Fatalf("root span = %+v", q)
	}
	if q.HopsOwn != 1 {
		t.Errorf("hop not attributed to the pushed span: own=%d", q.HopsOwn)
	}
	r := a.ByID[child]
	if r == nil || r.Parent != root || r.Op != OpRetry {
		t.Errorf("retry child = %+v", r)
	}
	if a.Truncated {
		t.Error("balanced explicit-span trace flagged truncated")
	}
}

func TestRecordAtStampsExplicitTime(t *testing.T) {
	clock := &fakeClock{t: 5 * time.Millisecond}
	tr := New(clock)
	id := tr.Begin(OpQuery, 1, "")
	tr.Record(TypeWait, 2, 3, "")
	tr.RecordAt(9*time.Millisecond, TypeServe, 2, 0, "")
	tr.End()
	evs := tr.Events().Slice()
	if evs[1].T != 5*time.Millisecond || evs[1].Type != TypeWait {
		t.Errorf("wait event = %+v", evs[1])
	}
	if evs[2].T != 9*time.Millisecond || evs[2].Type != TypeServe || evs[2].Span != id {
		t.Errorf("serve event = %+v", evs[2])
	}
}

// TestRingSpansChunks fills and wraps a ring whose capacity is several
// chunks and a partial one: the order, the count and the eviction tally
// must not depend on where the chunk boundaries fall.
func TestRingSpansChunks(t *testing.T) {
	const capacity = 2*ringChunk + 5
	tr := NewRing(nil, capacity)
	check := func(emitted int) {
		t.Helper()
		kept := min(emitted, capacity)
		if tr.Len() != kept || tr.Dropped() != uint64(emitted-kept) {
			t.Fatalf("after %d events: len=%d dropped=%d, want %d and %d",
				emitted, tr.Len(), tr.Dropped(), kept, emitted-kept)
		}
		evs := tr.Events().Slice()
		if len(evs) != kept {
			t.Fatalf("after %d events: Events len = %d, want %d", emitted, len(evs), kept)
		}
		for i, ev := range evs {
			if want := emitted - kept + i; ev.From != want {
				t.Fatalf("after %d events: event %d is hop %d, want %d", emitted, i, ev.From, want)
			}
		}
	}
	emitted := 0
	for _, upTo := range []int{ringChunk - 1, ringChunk + 1, capacity, capacity + 1, 3*ringChunk + 7} {
		for ; emitted < upTo; emitted++ {
			tr.Hop(emitted, emitted+1, "query", 8, 1, false)
		}
		check(emitted)
	}
	tr.Reset()
	emitted = 0
	tr.Hop(0, 1, "query", 8, 1, false)
	check(1)
}
