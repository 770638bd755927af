package attrib

import (
	"testing"
	"time"

	"pooldcs/internal/trace"
)

// fuzzEvents decodes an arbitrary byte string into an adversarial event
// stream: span references may dangle, starts may duplicate, ends may be
// unbalanced, timestamps may go backwards, fault/repair markers may
// close windows that never opened.
func fuzzEvents(data []byte) []trace.Event {
	types := []trace.Type{
		trace.TypeSpanStart, trace.TypeSpanEnd, trace.TypeHop,
		trace.TypeBroadcast, trace.TypePlace, trace.TypeFanout,
		trace.TypeResolve, trace.TypeReply, trace.TypeNotify,
		trace.TypeFault, trace.TypeWait, trace.TypeServe, trace.TypeRepair,
	}
	ops := []trace.Op{trace.OpQuery, trace.OpInsert, trace.OpRetry, trace.OpFanout}
	details := []string{"", "crash", "recover", "done", "mirror"}
	var events []trace.Event
	var t time.Duration
	for i := 0; i+3 < len(data); i += 4 {
		// Timestamps move by a signed delta so streams can go backwards.
		t += time.Duration(int8(data[i+3])) * time.Millisecond
		ev := trace.Event{
			T:      t,
			Type:   types[int(data[i])%len(types)],
			Span:   uint64(data[i+1] % 16),
			Node:   int(data[i+2] % 8),
			From:   int(data[i+2] % 8),
			To:     int(data[i+1] % 8),
			Kind:   "query",
			Frames: 1,
			Lost:   data[i+2]&1 == 1,
			Detail: details[int(data[i+3])%len(details)],
		}
		if ev.Type == trace.TypeSpanStart {
			ev.Op = ops[int(data[i+2])%len(ops)]
			ev.Parent = uint64(data[i+3] % 16)
		}
		events = append(events, ev)
	}
	return events
}

// FuzzAutopsy feeds adversarial event streams through the whole autopsy
// pipeline: Analyze must never fail, Attribute must never panic, and
// every breakdown must satisfy the exactness invariant — non-negative
// phases that sum to the span's wall-clock extent — and every result must
// equal what the reference implementation (ref_test.go) gives.
func FuzzAutopsy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 1, 1, 250, 2, 1, 2, 10, 9, 3, 0, 1, 12, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := trace.LogOf(fuzzEvents(data))
		a, err := trace.Analyze(events)
		if err != nil {
			t.Fatalf("Analyze errored on adversarial stream: %v", err)
		}
		opts := Options{Ops: []trace.Op{
			trace.OpQuery, trace.OpInsert, trace.OpRetry, trace.OpFanout,
		}}
		bds := Attribute(events, a, opts)
		checkAgainstRef(t, events, a, opts)
		for i := range bds {
			b := &bds[i]
			var sum time.Duration
			for p := Phase(0); p < NumPhases; p++ {
				if b.Phases[p] < 0 {
					t.Fatalf("negative phase %v on span %d: %v", p, b.Span, b.Phases[p])
				}
				sum += b.Phases[p]
			}
			if sum != b.Total {
				t.Fatalf("span %d: phases sum %v != total %v", b.Span, sum, b.Total)
			}
			if b.Total < 0 {
				t.Fatalf("span %d: negative total %v", b.Span, b.Total)
			}
		}
		bt := Blame(bds)
		for _, c := range bt.Cohorts {
			var share float64
			for p := Phase(0); p < NumPhases; p++ {
				share += c.Share(p)
			}
			if c.Total > 0 && (share < 0.999 || share > 1.001) {
				t.Fatalf("cohort p%d shares sum to %v", c.Pct, share)
			}
		}
		_ = bt.String()
	})
}
