package event

import (
	"math"
	"reflect"
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
// r.Events(), with an empty dst and with a dst prefix that must be kept.
func checkRowsAgainstSpec(t *testing.T, r *Rows, q Query) {
	t.Helper()
	want := refFilter(q, r.Events())
	if got := r.AppendMatches(nil, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("Rows.AppendMatches(nil, %v) = %v, reference %v", q, got, want)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	prefix := []Event{New(0.9, 0.9, 0.9), New(0.8)}
	dst := append(make([]Event, 0, len(prefix)+r.Len()), prefix...)
	got := r.AppendMatches(dst, q)
	if &got[0] != &dst[0] || !reflect.DeepEqual(got[:len(prefix)], prefix) {
		t.Fatalf("dst prefix disturbed: %v", got[:len(prefix)])
	}
	if rest := got[len(prefix):]; len(rest) != len(want) || (len(want) > 0 && !reflect.DeepEqual(rest, want)) {
		t.Fatalf("after prefix: %v, reference %v (q=%v)", rest, want, q)
	}
}

// TestRowsMatchReference holds the packed kernel to the specification
// over k = 1…6 (3 takes the packed path), Wild mixes, values on the
// bounds, 0 and the largest float below 1, point ranges, events and
// queries of other dimensionalities, empty rows, and every write move.
func TestRowsMatchReference(t *testing.T) {
	src := rng.New(30)
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 300; trial++ {
			var r Rows
			n := src.Intn(40) // 0 included
			for i := 0; i < n; i++ {
				dims := k
				if trial%10 == 9 && src.Intn(8) == 0 {
					dims = 1 + src.Intn(6) // makes the rows irregular
				}
				vals := make([]float64, dims)
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
			r.DeleteFunc(func(e Event) bool { return e.Seq%3 == uint64(trial%3) })
			checkRowsAgainstSpec(t, &r, q)
			r.Reset(append([]Event(nil), r.Events()...))
			checkRowsAgainstSpec(t, &r, q)
		}
	}
	var empty Rows
	if got := empty.AppendMatches(nil, NewQuery(Span(0, 1))); got != nil {
		t.Errorf("empty Rows matched %v", got)
	}
}

// TestRowsWrites covers the write moves' own contracts: packing on
// demand and only for k = 3 scans, DeleteFunc's count and order, Reset's ownership, and irregular
// rows becoming regular again once emptied.
func TestRowsWrites(t *testing.T) {
	all := NewQuery(Unspecified(), Unspecified(), Unspecified())
	var r Rows
	for i := 1; i <= 6; i++ {
		r.Append(Event{Values: []float64{float64(i) / 10, 0.5, 0.5}, Seq: uint64(i)})
	}
	if r.packed != 0 || len(r.vals) != 0 {
		t.Fatalf("writes packed %d rows before any scan", r.packed)
	}
	if r.AppendMatches(nil, NewQuery(Unspecified(), Unspecified())); r.packed != 0 {
		t.Fatal("a scan at k = 2 packed rows")
	}
	r.AppendMatches(nil, all)
	if r.packed != 6 || len(r.vals) != 18 {
		t.Fatalf("a scan left %d of 6 rows packed", r.packed)
	}
	r.Append(Event{Values: []float64{0.7, 0.5, 0.5}, Seq: 7})
	if got := r.AppendMatches(nil, all); len(got) != 7 || r.packed != 7 {
		t.Fatalf("a scan after an append matched %d of 7 with %d packed", len(got), r.packed)
	}
	if n := r.DeleteFunc(func(e Event) bool { return e.Seq%2 == 0 }); n != 3 {
		t.Fatalf("DeleteFunc deleted %d, want 3", n)
	}
	if got := seqs(r.Events()); !reflect.DeepEqual(got, []uint64{1, 3, 5, 7}) {
		t.Fatalf("after DeleteFunc: %v", got)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	own := []Event{New(0.1, 0.2, 0.3), New(0.3, 0.4, 0.5)}
	r.Reset(own)
	if &r.Events()[0] != &own[0] {
		t.Error("Reset copied the slice it was given")
	}
	r.Append(New(0.5, math.NaN(), 0.5))
	if got := r.AppendMatches(nil, all); len(got) != 3 {
		t.Errorf("irregular rows matched %d of 3 under an all-Wild query", len(got))
	}
	if !r.irregular || r.vals != nil || r.Check() != nil {
		t.Fatal("a NaN value left the rows regular")
	}
	r.DeleteFunc(func(Event) bool { return true })
	r.Append(New(0.5, 0.5, 0.5))
	r.AppendMatches(nil, all)
	if r.irregular || r.packed != 1 || r.Check() != nil {
		t.Error("emptied rows stayed irregular")
	}
	r.Reset(nil)
	if r.Len() != 0 || r.Events() != nil {
		t.Error("Reset(nil) left events behind")
	}
}

// TestRowsCheckCatchesDrift shows Check failing on rows a write bypassed.
func TestRowsCheckCatchesDrift(t *testing.T) {
	var r Rows
	r.Append(New(0.1, 0.2, 0.3))
	r.AppendMatches(nil, NewQuery(Span(0, 1), Span(0, 1), Span(0, 1)))
	r.vals[1] = 0.25
	if r.Check() == nil {
		t.Error("Check missed a packed value that differs from its event")
	}
	r.vals = r.vals[:2]
	if r.Check() == nil {
		t.Error("Check missed a short packed row")
	}
}

func seqs(es []Event) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

// FuzzRowsMatchReference decodes arbitrary bytes into rows and a query —
// any dimensionality, any float bit pattern for bounds and values (NaN and
// ±Inf included), Wild flags — and requires the packed kernel to return
// exactly what the specification returns, before and after a deletion.
func FuzzRowsMatchReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 0xff, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{6, 1, 2, 3})
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
		for seq := uint64(1); len(data) > 0; seq++ {
			dims := k
			if data[0] == 0xee {
				dims = 1 + int(next()*6)%6
			}
			vals := make([]float64, dims)
			for d := range vals {
				vals[d] = next()
			}
			r.Append(Event{Values: vals, Seq: seq})
		}
		checkRowsAgainstSpec(t, &r, q)
		r.DeleteFunc(func(e Event) bool { return e.Seq%2 == 0 })
		checkRowsAgainstSpec(t, &r, q)
	})
}
