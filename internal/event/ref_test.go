package event

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"pooldcs/internal/rng"
)

// refFilter is the two-pass Filter that AppendMatches replaced — count,
// allocate exactly, fill — kept as the reference the kernel is compared
// against.
func refFilter(q Query, events []Event) []Event {
	n := 0
	for _, e := range events {
		if q.Matches(e) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, e := range events {
		if q.Matches(e) {
			out = append(out, e)
		}
	}
	return out
}

// belowOne is the largest float64 below 1, the top of every attribute's
// domain.
var belowOne = math.Nextafter(1, 0)

// gridValue draws from a coarse grid that includes 0 and belowOne, so
// values land exactly on range bounds.
func gridValue(src *rng.Source) float64 {
	switch g := src.Intn(6); g {
	case 5:
		return belowOne
	default:
		return float64(g) / 4
	}
}

// randomRanges draws k ranges: Wild, point, or span, bounds on the grid.
func randomRanges(src *rng.Source, k int) Query {
	rs := make([]Range, k)
	for i := range rs {
		switch src.Intn(4) {
		case 0:
			rs[i] = Unspecified()
		case 1:
			rs[i] = PointRange(gridValue(src))
		default:
			a, b := gridValue(src), gridValue(src)
			rs[i] = Span(min(a, b), max(a, b))
		}
	}
	return NewQuery(rs...)
}

// checkRowsAgainstSpec holds r.AppendMatches to q.AppendMatches over
// r.AppendTo(nil), with an empty dst and with a dst prefix that must be
// kept, and At to AppendTo.
func checkRowsAgainstSpec(t *testing.T, r *Rows, q Query) {
	t.Helper()
	all := r.AppendTo(nil)
	if len(all) != r.Len() {
		t.Fatalf("AppendTo gave %d events, Len %d", len(all), r.Len())
	}
	for j, e := range all {
		if at := r.At(j); !sameEvents([]Event{at}, []Event{e}) {
			t.Fatalf("At(%d) = %v (seq %d), AppendTo has %v (seq %d)", j, at, at.Seq, e, e.Seq)
		}
	}
	want := refFilter(q, all)
	if got := r.AppendMatches(nil, q); !sameEvents(got, want) {
		t.Fatalf("Rows.AppendMatches(nil, %v) = %v, reference %v", q, got, want)
	}
	prefix := []Event{New(0.9, 0.9, 0.9), New(0.8)}
	dst := append(make([]Event, 0, len(prefix)+r.Len()), prefix...)
	got := r.AppendMatches(dst, q)
	if &got[0] != &dst[0] || !sameEvents(got[:len(prefix)], prefix) {
		t.Fatalf("dst prefix disturbed: %v", got[:len(prefix)])
	}
	if rest := got[len(prefix):]; len(rest) != len(want) || (len(want) > 0 && !sameEvents(rest, want)) {
		t.Fatalf("after prefix: %v, reference %v (q=%v)", rest, want, q)
	}
}

// TestRowsMatchReference holds the kernel to the specification over
// k = 1…6 (3 takes the unrolled path), Wild mixes, values on the bounds, 0
// and the largest float below 1, point ranges, queries of other
// dimensionalities, empty rows, and every write move.
func TestRowsMatchReference(t *testing.T) {
	src := rng.New(30)
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 300; trial++ {
			var r Rows
			n := src.Intn(40) // 0 included
			for i := 0; i < n; i++ {
				vals := make([]float64, k)
				for d := range vals {
					vals[d] = gridValue(src)
				}
				r.Append(Event{Values: vals, Seq: uint64(i + 1)})
			}
			qk := k
			if src.Intn(10) == 0 {
				qk = 1 + src.Intn(6) // dimension mismatch
			}
			q := randomRanges(src, qk)
			checkRowsAgainstSpec(t, &r, q)
			r.Reset(r.AppendTo(nil))
			checkRowsAgainstSpec(t, &r, q)
		}
	}
	var empty Rows
	if got := empty.AppendMatches(nil, NewQuery(Span(0, 1))); got != nil {
		t.Errorf("empty Rows matched %v", got)
	}
}

// deepCopy returns events with their values copied out of any row.
// sameEvents is reflect.DeepEqual on two event lists without reflection,
// which made the fuzz target's checks ten times dearer: a nil list or
// Values equals only a nil one.
func sameEvents(a, b []Event) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].Values, b[i].Values
		if a[i].Seq != b[i].Seq || (x == nil) != (y == nil) || !slices.Equal(x, y) {
			return false
		}
	}
	return true
}

func deepCopy(events []Event) []Event {
	var out []Event
	for _, e := range events {
		out = append(out, Event{Values: append([]float64(nil), e.Values...), Seq: e.Seq})
	}
	return out
}

// TestRowsWrites covers the chunk contract: Append copies the caller's
// values, a reply aliases its row with its capacity capped, a row of
// another k panics, and every reply taken before a write — Append across
// chunk boundaries, Reset — survives all later writes unchanged.
func TestRowsWrites(t *testing.T) {
	all := NewQuery(Unspecified(), Unspecified(), Unspecified())
	var r Rows
	var replies, held [][]Event
	snap := func() {
		reply := r.AppendMatches(nil, all)
		replies, held = append(replies, reply), append(held, deepCopy(reply))
	}
	vals := []float64{0.1, 0.5, 0.5}
	r.Append(Event{Values: vals, Seq: 1})
	vals[0] = 0.9
	if got := r.At(0).Values[0]; got != 0.1 {
		t.Fatalf("the row follows its caller's slice: %v", got)
	}
	for i := 2; i <= 3; i++ {
		r.Append(Event{Values: []float64{float64(i) / 10, 0.5, 0.5}, Seq: uint64(i)})
	}
	snap()
	if cap(replies[0][0].Values) != 3 {
		t.Fatalf("a reply's values have capacity %d, want 3", cap(replies[0][0].Values))
	}
	first := &replies[0][0].Values[0]
	for i := 4; i <= 70; i++ { // chunks of 4, 4, 8, 16, 32 and 64 rows
		r.Append(Event{Values: []float64{float64(i%10) / 10, 0.5, 0.5}, Seq: uint64(i)})
	}
	if got := r.AppendMatches(nil, all); len(got) != 70 || &got[0].Values[0] != first {
		t.Fatalf("after appends: %d of 70 matched, first row moved: %v", len(got), &got[0].Values[0] != first)
	}
	snap()
	rev := r.AppendTo(nil)
	slices.Reverse(rev)
	r.Reset(rev)
	if got := seqs(r.AppendTo(nil)); len(got) != 70 || got[0] != 70 || got[69] != 1 {
		t.Fatalf("after Reset: %v", got)
	}
	snap()
	r.Reset(nil)
	if r.Len() != 0 || r.AppendTo(nil) != nil {
		t.Error("Reset(nil) left events behind")
	}
	for i := 0; i < 40; i++ {
		r.Append(Event{Values: []float64{0.05, 0.05, 0.05}, Seq: 100})
	}
	for i := range replies {
		if !reflect.DeepEqual(replies[i], held[i]) {
			t.Errorf("reply %d changed under later writes: %v, was %v", i, replies[i], held[i])
		}
	}
	r.Reset(nil)
	r.Append(New(0.5, 0.5)) // an empty Rows takes any k
	defer func() {
		if recover() == nil {
			t.Error("a row of another k was appended")
		}
	}()
	r.Append(New(0.5, 0.5, 0.5))
}

func seqs(es []Event) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

// FuzzRowsMatchReference decodes arbitrary bytes into one k, a query — any
// float bit pattern for its bounds (NaN and ±Inf included) and Wild flags
// — and a stream of writes: appends of any non-NaN values and reversing
// resets, each held to what it must leave, with the kernel held
// to the specification and each of the first 16 replies to its deep copy
// after every later write.
func FuzzRowsMatchReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 0xff, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{6, 1, 2, 3})
	f.Add([]byte{3, 2, 1, 2, 3, 4, 5, 6, 0xee, 7, 7, 7, 0xdd, 1, 2, 3, 0xee, 0xdd})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%6
		wild := data[1]
		data = data[2:]
		// A byte picks a value from a table rich in edge cases, so short
		// inputs still hit bounds exactly.
		table := []float64{0, 0.25, 0.5, belowOne, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
		next := func() float64 {
			if len(data) == 0 {
				return 0.5
			}
			b := data[0]
			data = data[1:]
			if int(b) < len(table) {
				return table[b]
			}
			return float64(b) / 255
		}
		rs := make([]Range, k)
		for d := range rs {
			rs[d] = Range{L: next(), U: next(), Wild: wild&(1<<d) != 0}
		}
		q := NewQuery(rs...)
		var r Rows
		var replies, held [][]Event
		check := func() {
			checkRowsAgainstSpec(t, &r, q)
			for i := range replies {
				if !sameEvents(replies[i], held[i]) {
					t.Fatalf("reply %d changed under writes: %v, was %v", i, replies[i], held[i])
				}
			}
			if len(replies) < 16 {
				reply := r.AppendMatches(nil, q)
				replies, held = append(replies, reply), append(held, deepCopy(reply))
			}
		}
		// Every write is checked against the whole of the rows, so an
		// input's work grows with the square of its writes: past maxWrites,
		// which fill the first five chunks, the rest of it goes unread.
		const maxWrites = 64
		for seq := uint64(1); len(data) > 0 && seq <= maxWrites; seq++ {
			switch data[0] {
			case 0xdd:
				data = data[1:]
				src := r.AppendTo(nil)
				slices.Reverse(src)
				want := deepCopy(src)
				if r.Reset(src); !sameEvents(r.AppendTo(nil), want) {
					t.Fatalf("Reset holds %v, want %v", r.AppendTo(nil), want)
				}
			default:
				vals := make([]float64, k)
				for d := range vals {
					if vals[d] = next(); math.IsNaN(vals[d]) {
						vals[d] = 0.75
					}
				}
				r.Append(Event{Values: vals, Seq: seq})
			}
			check()
		}
		check()
	})
}
