// Package event defines the multi-dimensional events and queries of the
// paper's data model (§2).
//
// An event is a vector of k normalized attribute values in [0, 1). A query
// is a vector of per-attribute closed ranges; partial-match queries leave
// some attributes unspecified and are rewritten to full-range queries
// before processing, exactly as §2 prescribes.
package event

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Event is a k-dimensional sensor reading. Values are normalized attribute
// readings in [0, 1).
type Event struct {
	// Values holds one normalized reading per attribute.
	Values []float64
	// Seq is a network-unique identifier assigned at detection time. It
	// lets storage layers deduplicate and lets tests track individual
	// events through the system.
	Seq uint64
}

// New returns an Event over the given values with Seq zero.
func New(values ...float64) Event {
	return Event{Values: values}
}

// Fingerprint summarises a set of events by their Seqs: how many, and the
// sum and the xor of a splitmix64 mix of each. Seqs are network-unique, so
// two copies with equal fingerprints hold the same events but for a 64-bit
// collision; a count alone would not tell a copy missing one event and
// holding another twice from a whole one. A copy holding an event twice
// has another fingerprint than one holding it once.
type Fingerprint struct{ n, sum, xor uint64 }

// Add folds one more event, by its Seq, into f.
func (f *Fingerprint) Add(seq uint64) {
	x := seq + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	f.n++
	f.sum += x
	f.xor ^= x
}

// Dims returns the dimensionality k of the event.
func (e Event) Dims() int { return len(e.Values) }

// Validate checks that the event has at least one attribute and that every
// value is normalized into [0, 1). NaN is rejected by name: it fails every
// comparison, so no range test would catch it, and a stored NaN could
// never be answered.
func (e Event) Validate() error {
	if len(e.Values) == 0 {
		return errors.New("event: no attributes")
	}
	for i, v := range e.Values {
		if math.IsNaN(v) {
			return fmt.Errorf("event: attribute %d is NaN", i+1)
		}
		if v < 0 || v >= 1 {
			return fmt.Errorf("event: attribute %d = %v outside [0,1)", i+1, v)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (e Event) String() string {
	parts := make([]string, len(e.Values))
	for i, v := range e.Values {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Rank describes the ordering of an event's attributes: Rank(e)[0] is d1,
// the dimension (1-based, matching the paper) holding the greatest value,
// Rank(e)[1] is d2, and so on. Ties are broken by lower dimension first,
// which makes d1/d2 deterministic; callers that need every tied candidate
// (the §4.1 rule) use GreatestDims instead.
func Rank(e Event) []int {
	k := len(e.Values)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by descending value; k is small (typically 3).
	for i := 1; i < k; i++ {
		j := i
		for j > 0 && e.Values[idx[j]] > e.Values[idx[j-1]] {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	for i := range idx {
		idx[i]++ // 1-based dimensions, as in the paper
	}
	return idx
}

// GreatestDims returns every dimension (1-based) whose value equals the
// event's maximum. The result has length 1 unless the event has tied
// greatest values (§4.1).
func GreatestDims(e Event) []int {
	max := Greatest(e)
	var dims []int
	for i, v := range e.Values {
		if v == max {
			dims = append(dims, i+1)
		}
	}
	return dims
}

// Greatest returns the event's maximum attribute value. A dimension d
// (1-based) is one of GreatestDims exactly when e.Values[d-1] equals it,
// which is how a hot path walks the tied maxima without building the
// slice.
func Greatest(e Event) float64 {
	max := e.Values[0]
	for _, v := range e.Values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// SecondGreatest returns the second-greatest attribute value of e assuming
// dimension d1 (1-based) is taken as the greatest. With distinct values
// this is simply V_{d2}; with ties it is the maximum over the remaining
// dimensions, which is the value the paper's Theorem 3.1 uses for VO.
func SecondGreatest(e Event, d1 int) float64 {
	best := -1.0
	for i, v := range e.Values {
		if i+1 == d1 {
			continue
		}
		if v > best {
			best = v
		}
	}
	return best
}

// Range is a closed query range [L, U] on one attribute. A "don't care"
// attribute is represented by Unspecified() before rewriting.
type Range struct {
	L, U float64
	// Wild marks an unspecified ("don't care") attribute of a
	// partial-match query.
	Wild bool
}

// Span returns the closed range [l, u].
func Span(l, u float64) Range { return Range{L: l, U: u} }

// PointRange returns the degenerate range [v, v] used by point queries.
func PointRange(v float64) Range { return Range{L: v, U: v} }

// Unspecified returns a "don't care" range.
func Unspecified() Range { return Range{Wild: true} }

// Contains reports whether v falls in the closed range. Wild ranges
// contain everything.
func (r Range) Contains(v float64) bool {
	if r.Wild {
		return true
	}
	return v >= r.L && v <= r.U
}

// String implements fmt.Stringer.
func (r Range) String() string {
	if r.Wild {
		return "*"
	}
	if r.L == r.U {
		return fmt.Sprintf("[%.3f]", r.L)
	}
	return fmt.Sprintf("[%.3f, %.3f]", r.L, r.U)
}

// Class labels the paper's four query types (§2).
type Class int

// Query classes, in the paper's numbering.
const (
	ExactPoint   Class = 1 // h = k, L_i = U_i everywhere
	PartialPoint Class = 2 // h < k, L_i = U_i on specified attributes
	ExactRange   Class = 3 // h = k, L_i ≤ U_i
	PartialRange Class = 4 // h < k, L_i < U_i on specified attributes
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ExactPoint:
		return "exact-point"
	case PartialPoint:
		return "partial-point"
	case ExactRange:
		return "exact-range"
	case PartialRange:
		return "partial-range"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Query is a k-dimensional (possibly partial) range query.
type Query struct {
	Ranges []Range
}

// NewQuery builds a query over the given ranges.
func NewQuery(ranges ...Range) Query { return Query{Ranges: ranges} }

// Dims returns the dimensionality k of the query.
func (q Query) Dims() int { return len(q.Ranges) }

// Validate checks dimensionality and that each specified range is a
// non-empty sub-range of [0, 1]. A NaN bound is rejected by name, as in
// Event.Validate.
func (q Query) Validate() error {
	if len(q.Ranges) == 0 {
		return errors.New("query: no attributes")
	}
	specified := 0
	for i, r := range q.Ranges {
		if r.Wild {
			continue
		}
		specified++
		if math.IsNaN(r.L) || math.IsNaN(r.U) {
			return fmt.Errorf("query: attribute %d range [%v, %v] has a NaN bound", i+1, r.L, r.U)
		}
		if r.L > r.U {
			return fmt.Errorf("query: attribute %d has empty range [%v, %v]", i+1, r.L, r.U)
		}
		if r.L < 0 || r.U > 1 {
			return fmt.Errorf("query: attribute %d range [%v, %v] outside [0,1]", i+1, r.L, r.U)
		}
	}
	if specified == 0 {
		return errors.New("query: all attributes unspecified")
	}
	return nil
}

// Classify returns the paper's query class of q.
func (q Query) Classify() Class {
	partial, point := false, true
	for _, r := range q.Ranges {
		if r.Wild {
			partial = true
			continue
		}
		if r.L != r.U {
			point = false
		}
	}
	switch {
	case partial && point:
		return PartialPoint
	case partial:
		return PartialRange
	case point:
		return ExactPoint
	default:
		return ExactRange
	}
}

// Unspecified returns the number m of "don't care" attributes; the paper
// calls a query with m unspecified ranges an m-partial query.
func (q Query) Unspecified() int {
	m := 0
	for _, r := range q.Ranges {
		if r.Wild {
			m++
		}
	}
	return m
}

// Rewrite returns q with every unspecified attribute replaced by the full
// range [0, 1], per §2: "the query can be rewritten by setting the range of
// each unspecified attribute to [0, 1]". The receiver is not modified.
func (q Query) Rewrite() Query {
	return Query{Ranges: q.AppendRewritten(make([]Range, 0, len(q.Ranges)))}
}

// AppendRewritten appends the ranges of q.Rewrite() to dst and returns the
// extended slice: the rewrite without its allocation, for callers that
// resolve many queries into memory they own. dst may be q's own ranges
// truncated to length zero.
func (q Query) AppendRewritten(dst []Range) []Range {
	for _, r := range q.Ranges {
		if r.Wild {
			r = Range{L: 0, U: 1}
		}
		dst = append(dst, r)
	}
	return dst
}

// Matches reports whether event e answers query q (the §2 answer
// predicate). Events of a different dimensionality never match.
func (q Query) Matches(e Event) bool {
	if len(e.Values) != len(q.Ranges) {
		return false
	}
	for i, r := range q.Ranges {
		if !r.Contains(e.Values[i]) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (q Query) String() string {
	parts := make([]string, len(q.Ranges))
	for i, r := range q.Ranges {
		parts[i] = r.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// AppendMatches appends the events matching q to dst, in order, and
// returns the extended slice: one Matches pass, and no allocation while
// dst has room. It is the specification of the stores' row kernel,
// Rows.AppendMatches, and serves callers whose events sit in no Rows; the
// caller owns dst and decides when its contents are copied out.
func (q Query) AppendMatches(dst, events []Event) []Event {
	for i := range events {
		if q.Matches(events[i]) {
			dst = append(dst, events[i])
		}
	}
	return dst
}

// Filter returns the subset of events matching q, preserving order, in a
// fresh slice (nil when nothing matches). It is the convenience form for
// oracles and tools; query paths append into a buffer they own with
// AppendMatches.
func (q Query) Filter(events []Event) []Event {
	return q.AppendMatches(nil, events)
}

// CloneEvents returns an exact-size copy of events that shares no backing
// array with it, nil when events is empty — how a reply buffer's contents
// are handed to a caller.
func CloneEvents(events []Event) []Event {
	if len(events) == 0 {
		return nil
	}
	out := make([]Event, len(events))
	copy(out, events)
	return out
}
