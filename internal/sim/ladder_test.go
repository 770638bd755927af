package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestAtErrPastSideEffectFree pins the fix for the silent
// seq-increment-on-error bug: a rejected At/AtEvent must consume no
// sequence number, no arena slot, and leave the pending set untouched.
func TestAtErrPastSideEffectFree(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	s.Run()

	seq, slots, free := s.seq, len(s.slots), s.free
	if err := s.At(time.Millisecond, func() {}); err != ErrPast {
		t.Fatalf("At in the past: err = %v, want ErrPast", err)
	}
	if err := s.AtEvent(time.Millisecond, 0, 0, 0, 0); err != ErrPast {
		t.Fatalf("AtEvent in the past: err = %v, want ErrPast", err)
	}
	if s.seq != seq {
		t.Errorf("rejected schedule consumed a seq: %d -> %d", seq, s.seq)
	}
	if len(s.slots) != slots || s.free != free {
		t.Errorf("rejected schedule touched the arena: slots %d->%d free %d->%d",
			slots, len(s.slots), free, s.free)
	}
	if s.Pending() != 0 {
		t.Errorf("rejected schedule left %d pending events", s.Pending())
	}
}

// TestTypedEventDelivery covers the typed-event API end to end: handler
// registration, argument round-trips, ordering against closure events
// at the same timestamp, and the AfterEvent negative-delay clamp.
func TestTypedEventDelivery(t *testing.T) {
	s := NewScheduler()
	var log []uint64
	h := s.Register(handlerFunc(func(op uint8, a, b uint64) {
		log = append(log, uint64(op), a, b)
	}))

	if err := s.AtEvent(time.Millisecond, h, 7, 11, 13); err != nil {
		t.Fatalf("AtEvent: %v", err)
	}
	s.After(time.Millisecond, func() { log = append(log, 99) })
	s.AfterEvent(-time.Second, h, 1, 2, 3) // clamps to now
	s.Run()

	want := []uint64{1, 2, 3, 7, 11, 13, 99}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

type handlerFunc func(op uint8, a, b uint64)

func (f handlerFunc) HandleEvent(op uint8, a, b uint64) { f(op, a, b) }

// modelEvent is one pending event in the reference heap.
type modelEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// modelHeap is a textbook container/heap ordered by (at, seq) — the
// specification the ladder queue must match event for event.
type modelHeap []modelEvent

func (h modelHeap) Len() int { return len(h) }
func (h modelHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h modelHeap) Swap(i, j int)                   { h[i], h[j] = h[j], h[i] }
func (h *modelHeap) Push(x any)                     { *h = append(*h, x.(modelEvent)) }
func (h *modelHeap) Pop() any                       { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h modelHeap) peekAt() (time.Duration, uint64) { return h[0].at, h[0].seq }

// checker drives a Scheduler and a reference heap with the identical
// schedule stream and asserts every firing matches the heap's minimum.
type checker struct {
	t     *testing.T
	s     *Scheduler
	model modelHeap
	seq   uint64
	next  int
	fired int
}

// schedule registers one event on both structures. Same-tick (delta 0)
// and max-horizon timestamps are legal.
func (c *checker) schedule(delta time.Duration) {
	id := c.next
	c.next++
	at := c.s.Now() + delta
	if at < c.s.Now() { // saturate instead of wrapping past the horizon
		at = math.MaxInt64
	}
	c.seq++
	heap.Push(&c.model, modelEvent{at: at, seq: c.seq, id: id})
	if err := c.s.At(at, func() { c.onFire(id, at) }); err != nil {
		c.t.Fatalf("At(%v): %v", at, err)
	}
}

func (c *checker) onFire(id int, at time.Duration) {
	if c.model.Len() == 0 {
		c.t.Fatalf("event %d fired with empty model", id)
	}
	want := heap.Pop(&c.model).(modelEvent)
	if want.id != id || want.at != at || c.s.Now() != at {
		c.t.Fatalf("fired id=%d at=%v now=%v; model wants id=%d at=%v",
			id, at, c.s.Now(), want.id, want.at)
	}
	c.fired++
}

// TestLadderMatchesReferenceHeap is the ordering property test: under
// randomized schedules — near/far/max-horizon timestamps, same-tick
// bursts, nested scheduling from callbacks, partial drains interleaved
// with fresh pushes — the ladder queue fires events in exactly the
// order the reference heap predicts.
func TestLadderMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &checker{t: t, s: NewScheduler()}
		randomDelta := func() time.Duration {
			switch rng.Intn(10) {
			case 0:
				return 0 // same tick as now
			case 1:
				return time.Duration(rng.Intn(4)) // dense near-future ties
			case 2:
				return math.MaxInt64 // horizon saturation
			case 3:
				return time.Duration(rng.Int63n(int64(time.Hour))) // far future
			default:
				return time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
			}
		}
		for round := 0; round < 200; round++ {
			burst := 1 + rng.Intn(40)
			if rng.Intn(8) == 0 {
				// Same-tick burst: everything at one future timestamp,
				// exercising single-tick buckets and batch draining.
				at := time.Duration(rng.Int63n(int64(time.Second)))
				for i := 0; i < burst; i++ {
					c.schedule(at)
				}
			} else {
				for i := 0; i < burst; i++ {
					c.schedule(randomDelta())
				}
			}
			steps := rng.Intn(2 * burst)
			for i := 0; i < steps; i++ {
				if !c.s.Step() {
					break
				}
				// Nested scheduling from inside callbacks, sometimes.
				if rng.Intn(4) == 0 {
					c.schedule(randomDelta())
				}
			}
		}
		c.s.Run()
		if c.model.Len() != 0 {
			t.Fatalf("seed %d: drained scheduler but model still holds %d events", seed, c.model.Len())
		}
		if got := c.s.Executed(); got != uint64(c.fired) || c.fired != c.next {
			t.Fatalf("seed %d: fired %d of %d scheduled, Executed=%d", seed, c.fired, c.next, got)
		}
	}
}

// TestRespanWideBucket forces the ladder-queue rung spawn: a single
// oversized bucket spanning many timestamps must re-span at finer width
// and still fire in exact (at, seq) order.
func TestRespanWideBucket(t *testing.T) {
	c := &checker{t: t, s: NewScheduler()}
	rng := rand.New(rand.NewSource(42))
	// One far anchor makes the first wheel span coarse; a dense cloud
	// behind it then lands in very few buckets, overflowing
	// sortThreshold and triggering a re-span that dumps the anchor back
	// to the overflow tier.
	c.schedule(365 * 24 * time.Hour)
	for i := 0; i < 4*sortThreshold; i++ {
		c.schedule(time.Duration(rng.Int63n(int64(time.Minute))))
	}
	c.s.Run()
	if c.model.Len() != 0 || c.fired != c.next {
		t.Fatalf("respan run incomplete: fired %d of %d, model holds %d", c.fired, c.next, c.model.Len())
	}
}

// TestMaxHorizonEvents pins the saturation path: events at the maximum
// representable timestamp fire last, repeatedly, without overflowing.
func TestMaxHorizonEvents(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(math.MaxInt64, func() { order = append(order, 1) })
	_ = s.At(math.MaxInt64, func() { order = append(order, 2) })
	s.After(time.Millisecond, func() { order = append(order, 0) })
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("max-horizon firing order = %v, want [0 1 2]", order)
	}
	if s.Now() != math.MaxInt64 {
		t.Fatalf("clock = %v, want max horizon", s.Now())
	}
}

// FuzzSchedulerOrdering feeds arbitrary schedule/step scripts to the
// ladder queue with the reference heap checking every firing. Each
// input byte pair is one action: schedule at a derived delta (including
// zero and max-horizon deltas) or step.
func FuzzSchedulerOrdering(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0xff, 0x80, 0x03})
	f.Add([]byte{0x20, 0x20, 0x20, 0x20, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0x01, 0x40, 0x07, 0xfe, 0x33})
	f.Fuzz(func(t *testing.T, script []byte) {
		c := &checker{t: t, s: NewScheduler()}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op % 4 {
			case 0, 1: // schedule near/far
				c.schedule(time.Duration(arg) * time.Duration(op) * time.Microsecond)
			case 2: // same-tick or max-horizon
				if arg%2 == 0 {
					c.schedule(0)
				} else {
					c.schedule(math.MaxInt64)
				}
			case 3:
				for n := 0; n < int(arg%8); n++ {
					if !c.s.Step() {
						break
					}
				}
			}
		}
		c.s.Run()
		if c.model.Len() != 0 {
			t.Fatalf("model holds %d events after drain", c.model.Len())
		}
	})
}
