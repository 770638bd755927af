package event

import (
	"fmt"
	"math"
	"slices"
)

// width is the dimensionality the packed kernel serves: k = 3, the
// paper's. Queries of any other k scan through Query.AppendMatches and
// pack nothing.
const width = 3

// Rows is a store's list of events with their values packed row-major
// beside them: width float64s per event, in event order. AppendMatches
// scans the packed rows without a branch per attribute, which is what a
// cell's index node, a DIM owner and a GHT home do once per query they
// serve.
//
// Rows are packed on demand: a write only moves events, and a k = 3 scan
// first packs the events that landed since the last one, each once. A
// store that is filled and never queried — a deployment's preload — or
// only queried at another k allocates no rows; one that is queried as it
// fills grows its rows with its events.
//
// A Rows owns both slices. Events returns a read-only view, valid until
// the next write; Reset takes ownership of the slice it is given, and the
// Values of stored events are never written. The zero value is empty.
//
// The rows are regular while every event has width values and none is
// NaN — every event a store validated at k = 3. An event that breaks that
// makes the Rows irregular until it is empty again: no rows are kept and
// AppendMatches falls back to Query.AppendMatches, so the two agree on
// every input.
type Rows struct {
	events []Event
	// vals holds the rows of events[:packed].
	vals   []float64
	packed int
	// irregular drops vals (see the type comment).
	irregular bool
}

// Len returns the number of events held.
func (r *Rows) Len() int { return len(r.events) }

// Events returns the events in order. The caller must not modify the
// slice or its events; it stays valid until the next write.
func (r *Rows) Events() []Event { return r.events }

// Append adds e at the end.
func (r *Rows) Append(e Event) {
	if len(r.events) == 0 {
		r.Reset(r.events)
	}
	r.events = append(r.events, e)
}

// Reset makes events the contents, taking ownership of the slice; nil
// empties the Rows.
func (r *Rows) Reset(events []Event) {
	r.events, r.vals, r.packed, r.irregular = events, r.vals[:0], 0, false
}

// DeleteFunc deletes the events del reports true for, calling it once per
// event in order, keeps the rest in order and returns how many it deleted.
// Like slices.DeleteFunc it compacts in place and zeroes the vacated tail.
// The rows are packed again by the next scan.
func (r *Rows) DeleteFunc(del func(Event) bool) int {
	n := len(r.events)
	r.events = slices.DeleteFunc(r.events, del)
	r.vals, r.packed = r.vals[:0], 0
	return n - len(r.events)
}

// pack packs the rows of the events that landed since the last scan, or
// makes the Rows irregular.
func (r *Rows) pack() {
	r.vals = slices.Grow(r.vals, width*(len(r.events)-r.packed))
	for _, e := range r.events[r.packed:] {
		if len(e.Values) != width || hasNaN(e.Values) {
			r.vals, r.packed, r.irregular = nil, 0, true
			return
		}
		r.vals = append(r.vals, e.Values...)
	}
	r.packed = len(r.events)
}

func hasNaN(vs []float64) bool {
	for _, v := range vs {
		if v != v {
			return true
		}
	}
	return false
}

// AppendMatches appends the events matching q to dst, in order, and
// returns the extended slice: exactly q.AppendMatches(dst, r.Events()).
// A k = 3 query tests each packed row against per-query bounds, a Wild
// range being [-Inf, +Inf], without a branch per attribute: only the row's
// verdict branches, taken for the few rows that match.
func (r *Rows) AppendMatches(dst []Event, q Query) []Event {
	if len(q.Ranges) != width {
		return q.AppendMatches(dst, r.events)
	}
	if !r.irregular && r.packed < len(r.events) {
		r.pack()
	}
	if r.irregular {
		return q.AppendMatches(dst, r.events)
	}
	l0, u0 := bounds(q.Ranges[0])
	l1, u1 := bounds(q.Ranges[1])
	l2, u2 := bounds(q.Ranges[2])
	events, vals := r.events, r.vals
	for j := 0; j < len(events) && len(vals) >= width; j, vals = j+1, vals[width:] {
		in := b2u(vals[0] >= l0) & b2u(vals[0] <= u0) &
			b2u(vals[1] >= l1) & b2u(vals[1] <= u1) &
			b2u(vals[2] >= l2) & b2u(vals[2] <= u2)
		if in != 0 {
			dst = append(dst, events[j])
		}
	}
	return dst
}

// bounds returns the closed interval rg admits.
func bounds(rg Range) (lo, hi float64) {
	if rg.Wild {
		return math.Inf(-1), math.Inf(1)
	}
	return rg.L, rg.U
}

// b2u is 1 for true and 0 for false; the compiler turns it into a flag
// read (SETcc), not a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Check verifies that the packed rows hold exactly the values of the
// events they were packed from, and returns the first mismatch, or nil —
// how a store's invariant check catches a write path that bypassed the
// Rows.
func (r *Rows) Check() error {
	if r.irregular && (r.vals != nil || r.packed != 0) {
		return fmt.Errorf("event: irregular rows keep %d packed rows", r.packed)
	}
	if r.packed > len(r.events) || len(r.vals) != width*r.packed {
		return fmt.Errorf("event: %d packed values for %d of %d events", len(r.vals), r.packed, len(r.events))
	}
	for j, e := range r.events[:r.packed] {
		if len(e.Values) != width {
			return fmt.Errorf("event: row %d (seq %d) has %d attributes in rows of %d", j, e.Seq, len(e.Values), width)
		}
		for d, v := range e.Values {
			if got := r.vals[j*width+d]; got != v {
				return fmt.Errorf("event: row %d (seq %d) attribute %d packed as %v, event holds %v", j, e.Seq, d+1, got, v)
			}
		}
	}
	return nil
}
