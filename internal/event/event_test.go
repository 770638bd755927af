package event

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pooldcs/internal/rng"
)

func TestEventValidate(t *testing.T) {
	tests := []struct {
		name    string
		e       Event
		wantErr bool
	}{
		{"ok", New(0.1, 0.5, 0.9), false},
		{"zero ok", New(0, 0, 0), false},
		{"empty", New(), true},
		{"negative", New(-0.1, 0.5), true},
		{"one excluded", New(1.0, 0.5), true},
		{"above one", New(1.5), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.e.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		e    Event
		want []int
	}{
		{New(0.3, 0.2, 0.1), []int{1, 2, 3}}, // paper's example: d1 = 1
		{New(0.1, 0.2, 0.3), []int{3, 2, 1}},
		{New(0.4, 0.3, 0.1), []int{1, 2, 3}}, // paper §3.1.2 example
		{New(0.5), []int{1}},
		{New(0.4, 0.4, 0.2), []int{1, 2, 3}}, // tie broken by lower dim
	}
	for _, tt := range tests {
		if got := Rank(tt.e); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Rank(%v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestRankIsPermutationProperty(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		k := 1 + src.Intn(6)
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = src.Float64()
		}
		e := New(vals...)
		r := Rank(e)
		seen := make(map[int]bool, k)
		for _, d := range r {
			if d < 1 || d > k || seen[d] {
				t.Fatalf("Rank(%v) = %v is not a 1-based permutation", e, r)
			}
			seen[d] = true
		}
		// Values must be non-increasing along the rank order.
		for i := 1; i < k; i++ {
			if e.Values[r[i]-1] > e.Values[r[i-1]-1] {
				t.Fatalf("Rank(%v) = %v not sorted by value", e, r)
			}
		}
	}
}

func TestGreatestDims(t *testing.T) {
	tests := []struct {
		e    Event
		want []int
	}{
		{New(0.3, 0.2, 0.1), []int{1}},
		{New(0.4, 0.4, 0.2), []int{1, 2}}, // the §4.1 tie example
		{New(0.2, 0.2, 0.2), []int{1, 2, 3}},
		{New(0.1, 0.9), []int{2}},
	}
	for _, tt := range tests {
		if got := GreatestDims(tt.e); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("GreatestDims(%v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestSecondGreatest(t *testing.T) {
	tests := []struct {
		e    Event
		d1   int
		want float64
	}{
		{New(0.4, 0.3, 0.1), 1, 0.3},
		{New(0.4, 0.4, 0.2), 1, 0.4}, // tie: V_{d2} is the other 0.4
		{New(0.4, 0.4, 0.2), 2, 0.4},
		{New(0.1, 0.2, 0.9), 3, 0.2},
	}
	for _, tt := range tests {
		if got := SecondGreatest(tt.e, tt.d1); got != tt.want {
			t.Errorf("SecondGreatest(%v, d1=%d) = %v, want %v", tt.e, tt.d1, got, tt.want)
		}
	}
}

func TestRangeContains(t *testing.T) {
	r := Span(0.2, 0.5)
	for _, v := range []float64{0.2, 0.35, 0.5} {
		if !r.Contains(v) {
			t.Errorf("range should contain %v", v)
		}
	}
	for _, v := range []float64{0.19, 0.51} {
		if r.Contains(v) {
			t.Errorf("range should not contain %v", v)
		}
	}
	if !Unspecified().Contains(0.99) || !Unspecified().Contains(0) {
		t.Error("wild range must contain everything")
	}
	p := PointRange(0.3)
	if !p.Contains(0.3) || p.Contains(0.3000001) {
		t.Error("point range must contain only its value")
	}
}

func TestQueryValidate(t *testing.T) {
	tests := []struct {
		name    string
		q       Query
		wantErr bool
	}{
		{"ok", NewQuery(Span(0.1, 0.2), Span(0, 1)), false},
		{"partial ok", NewQuery(Unspecified(), Span(0.1, 0.2)), false},
		{"empty dims", NewQuery(), true},
		{"inverted", NewQuery(Span(0.5, 0.2)), true},
		{"out of domain", NewQuery(Span(-0.1, 0.2)), true},
		{"above domain", NewQuery(Span(0.5, 1.2)), true},
		{"all wild", NewQuery(Unspecified(), Unspecified()), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.q.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		q    Query
		want Class
	}{
		{NewQuery(PointRange(0.1), PointRange(0.2)), ExactPoint},
		{NewQuery(Unspecified(), PointRange(0.2)), PartialPoint},
		{NewQuery(Span(0.1, 0.3), Span(0.2, 0.4)), ExactRange},
		{NewQuery(Unspecified(), Span(0.2, 0.4)), PartialRange},
		{NewQuery(PointRange(0.1), Span(0.2, 0.4)), ExactRange},
	}
	for _, tt := range tests {
		if got := tt.q.Classify(); got != tt.want {
			t.Errorf("Classify(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ExactPoint.String() == "" || PartialRange.String() == "" || Class(99).String() == "" {
		t.Error("Class.String must never be empty")
	}
}

func TestUnspecifiedCount(t *testing.T) {
	q := NewQuery(Unspecified(), Span(0.1, 0.2), Unspecified())
	if got := q.Unspecified(); got != 2 {
		t.Errorf("Unspecified() = %d, want 2", got)
	}
}

func TestRewrite(t *testing.T) {
	q := NewQuery(Unspecified(), Unspecified(), Span(0.8, 0.84)) // the paper's Example 3.2
	r := q.Rewrite()
	want := NewQuery(Span(0, 1), Span(0, 1), Span(0.8, 0.84))
	if !reflect.DeepEqual(r, want) {
		t.Errorf("Rewrite() = %v, want %v", r, want)
	}
	// Original must be untouched.
	if !q.Ranges[0].Wild {
		t.Error("Rewrite mutated receiver")
	}
}

func TestRewritePreservesMatchesProperty(t *testing.T) {
	f := func(v1, v2, v3, lo, hi uint8, wild1, wild2 bool) bool {
		// Build a 3-dim event and partial query from bounded fractions.
		e := New(float64(v1)/256, float64(v2)/256, float64(v3)/256)
		l, u := float64(lo)/256, float64(hi)/256
		if l > u {
			l, u = u, l
		}
		rs := []Range{Span(l, u), Span(l, u), Span(l, u)}
		if wild1 {
			rs[0] = Unspecified()
		}
		if wild2 {
			rs[2] = Unspecified()
		}
		q := NewQuery(rs...)
		return q.Matches(e) == q.Rewrite().Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatches(t *testing.T) {
	q := NewQuery(Span(0.2, 0.3), Span(0.25, 0.35), Span(0.21, 0.24)) // Example 3.1's query
	tests := []struct {
		e    Event
		want bool
	}{
		{New(0.25, 0.3, 0.22), true},
		{New(0.2, 0.25, 0.21), true},  // all lower bounds inclusive
		{New(0.3, 0.35, 0.24), true},  // all upper bounds inclusive
		{New(0.19, 0.3, 0.22), false}, // dim 1 below
		{New(0.25, 0.36, 0.22), false},
		{New(0.25, 0.3, 0.25), false},
		{New(0.25, 0.3), false}, // wrong dimensionality
	}
	for _, tt := range tests {
		if got := q.Matches(tt.e); got != tt.want {
			t.Errorf("Matches(%v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestFilter(t *testing.T) {
	q := NewQuery(Span(0, 0.5), Unspecified())
	events := []Event{
		New(0.1, 0.9),
		New(0.6, 0.1),
		New(0.5, 0.5),
	}
	got := q.Filter(events)
	if len(got) != 2 || got[0].Values[0] != 0.1 || got[1].Values[0] != 0.5 {
		t.Errorf("Filter = %v", got)
	}
	if q.Filter(nil) != nil {
		t.Error("Filter(nil) should be nil")
	}
}

func TestStringFormats(t *testing.T) {
	e := New(0.4, 0.3, 0.1)
	if got := e.String(); got != "<0.400, 0.300, 0.100>" {
		t.Errorf("Event.String = %q", got)
	}
	q := NewQuery(Unspecified(), PointRange(0.25), Span(0.2, 0.3))
	if got := q.String(); got != "<*, [0.250], [0.200, 0.300]>" {
		t.Errorf("Query.String = %q", got)
	}
}

func TestMatchesIsMonotoneInRangeProperty(t *testing.T) {
	// Widening every range can never turn a match into a non-match.
	src := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		e := New(src.Float64(), src.Float64(), src.Float64())
		var narrow, wide []Range
		for i := 0; i < 3; i++ {
			lo := src.Float64() * 0.8
			hi := lo + src.Float64()*(1-lo)
			narrow = append(narrow, Span(lo, hi))
			wlo := lo * src.Float64()
			whi := hi + (1-hi)*src.Float64()
			wide = append(wide, Span(wlo, whi))
		}
		qn, qw := NewQuery(narrow...), NewQuery(wide...)
		if qn.Matches(e) && !qw.Matches(e) {
			t.Fatalf("widening broke a match: e=%v narrow=%v wide=%v", e, qn, qw)
		}
	}
}

func TestRangeStringWild(t *testing.T) {
	if got := Unspecified().String(); got != "*" {
		t.Errorf("wild String = %q", got)
	}
}

func TestSecondGreatestSingleDim(t *testing.T) {
	// With one dimension there is no second-greatest; contract: returns -1.
	if got := SecondGreatest(New(0.5), 1); got != -1 {
		t.Errorf("SecondGreatest single dim = %v, want -1", got)
	}
}

func TestRankTieStability(t *testing.T) {
	e := New(0.2, 0.2, 0.2)
	if got := Rank(e); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Rank all-ties = %v, want [1 2 3]", got)
	}
}

func TestValuesNearOne(t *testing.T) {
	v := math.Nextafter(1, 0)
	e := New(v, v, v)
	if err := e.Validate(); err != nil {
		t.Errorf("Validate(just below 1) = %v", err)
	}
}

func TestFilterMatchesReference(t *testing.T) {
	src := rng.New(14)
	randomQuery := func(k int) Query {
		rs := make([]Range, k)
		for i := range rs {
			switch src.Intn(4) {
			case 0:
				rs[i] = Unspecified()
			case 1:
				rs[i] = PointRange(float64(src.Intn(5)) / 4)
			default:
				lo := src.Float64()
				rs[i] = Span(lo, lo+src.Float64()*(1-lo))
			}
		}
		return NewQuery(rs...)
	}
	prefix := []Event{New(0.9, 0.9, 0.9), New(0.8)}
	for trial := 0; trial < 500; trial++ {
		q := randomQuery(3)
		evs := make([]Event, src.Intn(40)) // length 0 included
		for i := range evs {
			k := 3
			if src.Intn(8) == 0 {
				k = 1 + src.Intn(4) // dimension mismatch: never matches
			}
			vals := make([]float64, k)
			for j := range vals {
				vals[j] = float64(src.Intn(5)) / 4 // coarse grid: bounds get hit exactly
			}
			evs[i] = Event{Values: vals, Seq: uint64(i + 1)}
		}
		want := refFilter(q, evs)
		if got := q.AppendMatches(nil, evs); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendMatches(nil) = %v, reference %v (q=%v)", got, want, q)
		}
		if got := q.Filter(evs); !reflect.DeepEqual(got, want) {
			t.Fatalf("Filter = %v, reference %v (q=%v)", got, want, q)
		}
		// A non-empty dst keeps its prefix, in place.
		dst := append(make([]Event, 0, len(prefix)+len(evs)), prefix...)
		got := q.AppendMatches(dst, evs)
		if !reflect.DeepEqual(got[:len(prefix)], prefix) || &got[0] != &dst[0] {
			t.Fatalf("dst prefix disturbed: %v", got[:len(prefix)])
		}
		if rest := got[len(prefix):]; len(rest) != len(want) || (len(want) > 0 && !reflect.DeepEqual(rest, want)) {
			t.Fatalf("after prefix: %v, reference %v (q=%v)", rest, want, q)
		}
	}
	if got := NewQuery(Span(0, 1)).AppendMatches(nil, nil); got != nil {
		t.Errorf("AppendMatches(nil, nil) = %v, want nil", got)
	}
}

func TestCloneEvents(t *testing.T) {
	if CloneEvents(nil) != nil || CloneEvents([]Event{}) != nil {
		t.Error("CloneEvents of nothing should be nil")
	}
	buf := append(make([]Event, 0, 8), New(0.1), New(0.2))
	c := CloneEvents(buf)
	if !reflect.DeepEqual(c, buf[:2]) || cap(c) != 2 {
		t.Errorf("CloneEvents = %v (cap %d)", c, cap(c))
	}
	buf[0] = New(0.9)
	if c[0].Values[0] != 0.1 {
		t.Error("clone shares the source's backing array")
	}
}
