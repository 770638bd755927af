package event

import (
	"fmt"
	"math"
	"math/bits"
)

// firstChunk is the number of rows the first chunk of a Rows holds.
const firstChunk = 4

// Rows is the only stored form of a store's events: each event is one row,
// its Seq (as float64 bits) followed by its k values, written once when the
// event is appended. AppendMatches scans the rows without a branch per
// attribute at k = 3, which is what a cell's index node, a DIM owner and a
// GHT home do once per query they serve.
//
// Rows live in chunks that are never reallocated, and a row is never
// rewritten once written: the first chunk holds firstChunk rows and each
// later one as many rows as the Rows already holds. Append copies the
// event's values, so a store never keeps its caller's slice; every other
// write (Reset) builds fresh chunks and leaves the old ones to
// whoever still reads them. That is what lets a reply alias a row at no
// cost: the Event that At, AppendTo and AppendMatches hand out carries the
// row's values with their capacity capped, and stays valid, unchanged, for
// as long as it is held. Its Values must not be written.
//
// All rows share one k, fixed by the first row; appending an event of
// another k is a programming error and panics. The zero value is empty. A
// Rows must not be copied while it is still appended to.
type Rows struct {
	chunks [][]float64
	n, k   int
}

// Len returns the number of events held.
func (r *Rows) Len() int { return r.n }

// Append adds a row holding e at the end.
func (r *Rows) Append(e Event) {
	if r.n == 0 {
		r.k = len(e.Values)
	} else if len(e.Values) != r.k {
		panic(fmt.Sprintf("event: appending a %d-value event to rows of %d", len(e.Values), r.k))
	}
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		r.chunks = append(r.chunks, make([]float64, 0, max(r.n, firstChunk)*(r.k+1)))
		last++
	}
	c := append(r.chunks[last], math.Float64frombits(e.Seq))
	r.chunks[last] = append(c, e.Values...)
	r.n++
}

// row returns the event a stored row holds, aliasing it.
func row(c []float64) Event {
	return Event{Values: c[1:len(c):len(c)], Seq: math.Float64bits(c[0])}
}

// At returns the j-th event, aliasing its row.
func (r *Rows) At(j int) Event {
	c := 0
	if j >= firstChunk {
		// Chunk c ≥ 1 starts at row 2^(c+1).
		c = bits.Len(uint(j)) - 2
		j -= 1 << (c + 1)
	}
	stride := r.k + 1
	return row(r.chunks[c][j*stride : (j+1)*stride])
}

// AppendTo appends every event to dst, in order, each aliasing its row, and
// returns the extended slice.
func (r *Rows) AppendTo(dst []Event) []Event {
	stride := r.k + 1
	for _, c := range r.chunks {
		for ; len(c) >= stride; c = c[stride:] {
			dst = append(dst, row(c[:stride]))
		}
	}
	return dst
}

// Reset makes copies of events the contents, in fresh chunks; nil empties
// the Rows.
func (r *Rows) Reset(events []Event) {
	*r = Rows{}
	for _, e := range events {
		r.Append(e)
	}
}

// AppendMatches appends the events matching q to dst, in order, each
// aliasing its row, and returns the extended slice: exactly
// q.AppendMatches(dst, r.AppendTo(nil)) for rows holding no NaN. A k = 3
// query tests each row against per-query bounds, a Wild range being
// [-Inf, +Inf], without a branch per attribute: only the row's verdict
// branches, taken for the few rows that match. Any other k runs the
// specification's test row by row.
func (r *Rows) AppendMatches(dst []Event, q Query) []Event {
	if len(q.Ranges) != r.k {
		return dst
	}
	if r.k != 3 {
		stride := r.k + 1
		for _, c := range r.chunks {
			for ; len(c) >= stride; c = c[stride:] {
				if e := row(c[:stride]); q.Matches(e) {
					dst = append(dst, e)
				}
			}
		}
		return dst
	}
	l0, u0 := bounds(q.Ranges[0])
	l1, u1 := bounds(q.Ranges[1])
	l2, u2 := bounds(q.Ranges[2])
	for _, c := range r.chunks {
		for ; len(c) >= 4; c = c[4:] {
			in := b2u(c[1] >= l0) & b2u(c[1] <= u0) &
				b2u(c[2] >= l1) & b2u(c[2] <= u1) &
				b2u(c[3] >= l2) & b2u(c[3] <= u2)
			if in != 0 {
				dst = append(dst, row(c[:4]))
			}
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
