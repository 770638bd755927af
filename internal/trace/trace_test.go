package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable Clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func TestNilTracerIsDisabledNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	// None of these may panic, and nothing may be recorded.
	if id := tr.Begin(OpQuery, 1, "x"); id != 0 {
		t.Errorf("Begin on nil tracer = %d, want 0", id)
	}
	tr.Record(TypeResolve, 2, 3, "c")
	tr.Hop(0, 1, "query", 8, 1, false)
	tr.Broadcast(0, "control", 8, 1, 4, 0)
	tr.End()
	tr.Reset()
	if tr.Len() != 0 || tr.Events().Len() != 0 {
		t.Error("nil tracer recorded events")
	}
}

func TestSpanNestingAndTimestamps(t *testing.T) {
	clock := &fakeClock{}
	tr := New(clock)
	outer := tr.Begin(OpQuery, 7, "")
	clock.t = 5 * time.Millisecond
	tr.Hop(7, 8, "query", 16, 1, false)
	inner := tr.Begin(OpFanout, 8, "P1")
	if outer == 0 || inner == 0 || outer == inner {
		t.Fatalf("span ids: outer=%d inner=%d", outer, inner)
	}
	tr.Record(TypeResolve, 9, 2, "C(1,2)")
	clock.t = 10 * time.Millisecond
	tr.End()
	tr.End()

	evs := tr.Events().Slice()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	if evs[0].Type != TypeSpanStart || evs[0].Span != outer || evs[0].Parent != 0 {
		t.Errorf("outer start = %+v", evs[0])
	}
	if evs[1].Span != outer || evs[1].T != 5*time.Millisecond {
		t.Errorf("hop = %+v", evs[1])
	}
	if evs[2].Type != TypeSpanStart || evs[2].Parent != outer {
		t.Errorf("inner start parent = %d, want %d", evs[2].Parent, outer)
	}
	if evs[3].Span != inner {
		t.Errorf("resolve attributed to span %d, want %d", evs[3].Span, inner)
	}
	if evs[4].Span != inner || evs[5].Span != outer {
		t.Errorf("end order: %d then %d, want %d then %d", evs[4].Span, evs[5].Span, inner, outer)
	}
	if evs[5].T != 10*time.Millisecond {
		t.Errorf("outer end at %v", evs[5].T)
	}
}

func TestUnbalancedEndIsNoOp(t *testing.T) {
	tr := New(nil)
	tr.End() // nothing open
	tr.Begin(OpInsert, 1, "")
	tr.End()
	tr.End() // extra
	if got := tr.Len(); got != 2 {
		t.Errorf("events = %d, want 2", got)
	}
}

func TestHopOutsideSpanIsBackground(t *testing.T) {
	tr := New(nil)
	tr.Hop(1, 2, "control", 8, 1, false)
	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if a.BackgroundFrames != 1 {
		t.Errorf("background frames = %d, want 1", a.BackgroundFrames)
	}
}

func TestResetClearsState(t *testing.T) {
	tr := New(nil)
	tr.Begin(OpQuery, 0, "")
	tr.Hop(0, 1, "query", 8, 1, false)
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("events after reset: %d", tr.Len())
	}
	// Span ids restart and there is no dangling open span.
	if id := tr.Begin(OpQuery, 0, ""); id != 1 {
		t.Errorf("first span after reset = %d, want 1", id)
	}
	if tr.Events().At(0).Parent != 0 {
		t.Error("span after reset inherited a stale parent")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	clock := &fakeClock{t: 3 * time.Second}
	tr := New(clock)
	tr.Begin(OpInsert, 4, "")
	tr.Record(TypePlace, 9, 1, "P1 C(2,3)")
	tr.Hop(4, 5, "insert", 40, 2, true)
	tr.Broadcast(5, "control", 8, 1, 3, 0)
	tr.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != tr.Len() {
		t.Fatalf("round trip: %d events, want %d", len(got), tr.Len())
	}
	for i, ev := range tr.Events().Slice() {
		if got[i] != ev {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], ev)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"type":"warp","from":0,"to":1,"node":-1}` + "\n")); err == nil {
		t.Error("unknown event type accepted")
	}
}

func TestTypeStringAndParse(t *testing.T) {
	for typ, name := range typeNames {
		if typ.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(typ), typ.String(), name)
		}
		parsed, err := TypeFromString(name)
		if err != nil || parsed != typ {
			t.Errorf("TypeFromString(%q) = %v, %v", name, parsed, err)
		}
	}
	if _, err := TypeFromString("bogus"); err == nil {
		t.Error("bogus type name accepted")
	}
}
