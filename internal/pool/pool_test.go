package pool

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/rng"
)

// paperPools returns the three Pools of the paper's running example
// (Figure 2 with the §3.1.1 side length): l = 5, PC1 = C(1,2),
// PC2 = C(2,10), PC3 = C(7,3).
func paperPools() []Pool {
	return []Pool{
		{Dim: 1, Pivot: CellID{X: 1, Y: 2}, Side: 5},
		{Dim: 2, Pivot: CellID{X: 2, Y: 10}, Side: 5},
		{Dim: 3, Pivot: CellID{X: 7, Y: 3}, Side: 5},
	}
}

// TestCellRangesFigure3 reproduces the paper's Figure 3: the horizontal
// and vertical value ranges of every cell of P1 with l = 5.
func TestCellRangesFigure3(t *testing.T) {
	p := paperPools()[0]

	wantH := []HalfOpen{{0, 0.2}, {0.2, 0.4}, {0.4, 0.6}, {0.6, 0.8}, {0.8, 1.0}}
	for ho, want := range wantH {
		got := p.RangeH(ho)
		if !closeHO(got, want) {
			t.Errorf("Range_H(ho=%d) = %v, want %v", ho, got, want)
		}
	}

	// Figure 3's second column (ho=1): [0,0.4) split into five.
	wantV1 := []HalfOpen{{0, 0.08}, {0.08, 0.16}, {0.16, 0.24}, {0.24, 0.32}, {0.32, 0.4}}
	for vo, want := range wantV1 {
		got := p.RangeV(1, vo)
		if !closeHO(got, want) {
			t.Errorf("Range_V(ho=1, vo=%d) = %v, want %v", vo, got, want)
		}
	}

	// Spot checks across other columns, straight from the figure.
	checks := []struct {
		ho, vo int
		want   HalfOpen
	}{
		{0, 0, HalfOpen{0, 0.04}},
		{0, 4, HalfOpen{0.16, 0.2}},
		{2, 2, HalfOpen{0.24, 0.36}},
		{2, 4, HalfOpen{0.48, 0.6}},
		{3, 3, HalfOpen{0.48, 0.64}},
		{3, 4, HalfOpen{0.64, 0.8}},
		{4, 4, HalfOpen{0.8, 1.0}},
		{4, 0, HalfOpen{0, 0.2}},
	}
	for _, c := range checks {
		got := p.RangeV(c.ho, c.vo)
		if !closeHO(got, c.want) {
			t.Errorf("Range_V(ho=%d, vo=%d) = %v, want %v", c.ho, c.vo, got, c.want)
		}
	}
}

func closeHO(a, b HalfOpen) bool {
	const eps = 1e-12
	return math.Abs(a.Lo-b.Lo) < eps && math.Abs(a.Hi-b.Hi) < eps
}

// TestInsertCellPaperExample reproduces §3.1.2: E = <0.4, 0.3, 0.1> is
// stored in P1 at C(3,4).
func TestInsertCellPaperExample(t *testing.T) {
	pools := paperPools()
	e := event.New(0.4, 0.3, 0.1)
	d1 := event.Rank(e)[0]
	if d1 != 1 {
		t.Fatalf("d1 = %d, want 1", d1)
	}
	p := pools[d1-1]
	ho, vo := p.InsertOffsets(0.4, 0.3)
	if ho != 2 || vo != 2 {
		t.Fatalf("offsets = (%d,%d), want (2,2)", ho, vo)
	}
	if got := p.InsertCell(0.4, 0.3); got != (CellID{X: 3, Y: 4}) {
		t.Errorf("InsertCell = %v, want C(3,4)", got)
	}
}

// TestTheorem31Containment is the property behind Theorem 3.1: the cell an
// event is stored in has ranges containing the event's V_d1 and V_d2.
func TestTheorem31Containment(t *testing.T) {
	src := rng.New(40)
	for _, l := range []int{2, 5, 10, 16} {
		p := Pool{Dim: 1, Pivot: CellID{}, Side: l}
		for trial := 0; trial < 500; trial++ {
			vd1 := src.Float64()
			vd2 := src.Float64() * vd1 // vd2 ≤ vd1
			ho, vo := p.InsertOffsets(vd1, vd2)
			if ho < 0 || ho >= l || vo < 0 || vo >= l {
				t.Fatalf("l=%d v=(%v,%v): offsets (%d,%d) out of pool", l, vd1, vd2, ho, vo)
			}
			if h := p.RangeH(ho); !h.Contains(vd1) {
				t.Fatalf("l=%d: Range_H(%d)=%v does not contain vd1=%v", l, ho, h, vd1)
			}
			if v := p.RangeV(ho, vo); !v.Contains(vd2) {
				t.Fatalf("l=%d: Range_V(%d,%d)=%v does not contain vd2=%v", l, ho, vo, v, vd2)
			}
		}
	}
}

func TestInsertOffsetsTieAtColumnEdge(t *testing.T) {
	// vd2 == vd1 exactly at a column boundary must stay inside the pool.
	p := Pool{Dim: 1, Pivot: CellID{}, Side: 5}
	for _, v := range []float64{0.1999999999, 0.2, 0.4, 0.7999999, 0.99999} {
		ho, vo := p.InsertOffsets(v, v)
		if ho < 0 || ho >= 5 || vo < 0 || vo >= 5 {
			t.Errorf("v=%v: offsets (%d,%d) out of pool", v, ho, vo)
		}
	}
}

func TestInsertOffsetsOneDimensional(t *testing.T) {
	p := Pool{Dim: 1, Pivot: CellID{}, Side: 5}
	ho, vo := p.InsertOffsets(0.5, -1) // no second-greatest value
	if ho != 2 || vo != 0 {
		t.Errorf("offsets = (%d,%d), want (2,0)", ho, vo)
	}
}

// TestResolveExample31 reproduces Example 3.1 and Figure 4: for
// Q = <[0.2,0.3],[0.25,0.35],[0.21,0.24]>, only C(2,5) of P1, C(3,12) and
// C(3,13) of P2, and no cell of P3 are relevant.
func TestResolveExample31(t *testing.T) {
	pools := paperPools()
	q := event.NewQuery(event.Span(0.2, 0.3), event.Span(0.25, 0.35), event.Span(0.21, 0.24))

	got1 := pools[0].RelevantCells(q)
	if len(got1) != 1 || got1[0] != (CellID{X: 2, Y: 5}) {
		t.Errorf("P1 relevant cells = %v, want [C(2,5)]", got1)
	}

	got2 := pools[1].RelevantCells(q)
	want2 := []CellID{{X: 3, Y: 12}, {X: 3, Y: 13}}
	if !sameCells(got2, want2) {
		t.Errorf("P2 relevant cells = %v, want %v", got2, want2)
	}

	if got3 := pools[2].RelevantCells(q); len(got3) != 0 {
		t.Errorf("P3 relevant cells = %v, want none", got3)
	}
}

// TestResolveExample31Ranges pins the Theorem 3.2 range values the example
// derives (with the paper's R_H² typo resolved in the theorem's favour —
// see DESIGN.md §2).
func TestResolveExample31Ranges(t *testing.T) {
	pools := paperPools()
	q := event.NewQuery(event.Span(0.2, 0.3), event.Span(0.25, 0.35), event.Span(0.21, 0.24))

	rh1, rv1 := pools[0].QueryRanges(q)
	if !closeIv(rh1.Lo, 0.25) || !closeIv(rh1.Hi, 0.3) {
		t.Errorf("R_H¹ = %v, want [0.25, 0.3]", rh1)
	}
	if !closeIv(rv1.Lo, 0.25) || !closeIv(rv1.Hi, 0.3) {
		t.Errorf("R_V¹ = %v, want [0.25, 0.3]", rv1)
	}

	rh2, rv2 := pools[1].QueryRanges(q)
	if !closeIv(rh2.Lo, 0.25) || !closeIv(rh2.Hi, 0.35) {
		t.Errorf("R_H² = %v, want [0.25, 0.35] (theorem formula)", rh2)
	}
	if !closeIv(rv2.Lo, 0.21) || !closeIv(rv2.Hi, 0.3) {
		t.Errorf("R_V² = %v, want [0.21, 0.3]", rv2)
	}

	rh3, _ := pools[2].QueryRanges(q)
	if !rh3.Empty() {
		t.Errorf("R_H³ = %v, want empty ([0.25, 0.24])", rh3)
	}
}

// TestResolveExample32 reproduces Example 3.2 and Figure 5: the partial
// match query <*, *, [0.8, 0.84]> touches C(5,6) in P1, C(6,14) in P2,
// and C(11,3)…C(11,7) in P3.
func TestResolveExample32(t *testing.T) {
	pools := paperPools()
	q := event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84)).Rewrite()

	got1 := pools[0].RelevantCells(q)
	if len(got1) != 1 || got1[0] != (CellID{X: 5, Y: 6}) {
		t.Errorf("P1 relevant cells = %v, want [C(5,6)]", got1)
	}

	got2 := pools[1].RelevantCells(q)
	if len(got2) != 1 || got2[0] != (CellID{X: 6, Y: 14}) {
		t.Errorf("P2 relevant cells = %v, want [C(6,14)]", got2)
	}

	got3 := pools[2].RelevantCells(q)
	want3 := []CellID{{X: 11, Y: 3}, {X: 11, Y: 4}, {X: 11, Y: 5}, {X: 11, Y: 6}, {X: 11, Y: 7}}
	if !sameCells(got3, want3) {
		t.Errorf("P3 relevant cells = %v, want %v", got3, want3)
	}
}

func closeIv(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func sameCells(a, b []CellID) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i].X < a[j].X || (a[i].X == a[j].X && a[i].Y < a[j].Y) })
	sort.Slice(b, func(i, j int) bool { return b[i].X < b[j].X || (b[i].X == b[j].X && b[i].Y < b[j].Y) })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStorageCandidatesTie reproduces §4.1: the tied event <0.4,0.4,0.2>
// has two candidate cells, one in P1 and one in P2, and wherever it is
// detected Place stores it in one of them. (The paper's prose lists
// C(12,13); with the Figure-2 pivots the P2 candidate is C(4,13) — see
// DESIGN.md §2.)
func TestStorageCandidatesTie(t *testing.T) {
	d := paperDirectory(t, false)
	e := event.New(0.4, 0.4, 0.2)
	seen := map[Key]bool{}
	for origin := 0; origin < d.layout.N(); origin++ {
		key, _, err := d.Place(origin, e)
		if err != nil {
			t.Fatal(err)
		}
		seen[key] = true
	}
	want := map[Key]bool{{Dim: 1, Cell: CellID{X: 3, Y: 5}}: true, {Dim: 2, Cell: CellID{X: 4, Y: 13}}: true}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("candidates = %v, want %v", seen, want)
	}
}

func TestStorageCandidatesDistinct(t *testing.T) {
	d := paperDirectory(t, false)
	for origin := 0; origin < d.layout.N(); origin++ {
		key, _, err := d.Place(origin, event.New(0.4, 0.3, 0.1))
		if err != nil || key != (Key{Dim: 1, Cell: CellID{X: 3, Y: 4}}) {
			t.Fatalf("Place from %d = %v, %v; want P1 C(3,4)", origin, key, err)
		}
	}
}

// TestResolveFindsStoredCell is the recall property joining Theorems 3.1
// and 3.2: if an event matches a query, the cell the event is stored in is
// always among the query's relevant cells.
func TestResolveFindsStoredCell(t *testing.T) {
	pools := paperPools()
	src := rng.New(41)
	found := 0
	for trial := 0; trial < 3000; trial++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		var ranges []event.Range
		for j := 0; j < 3; j++ {
			lo := src.Float64() * 0.9
			hi := lo + src.Float64()*(1-lo)
			ranges = append(ranges, event.Span(lo, hi))
		}
		q := event.NewQuery(ranges...)
		if !q.Matches(e) {
			continue
		}
		found++
		d1 := event.Rank(e)[0]
		p := pools[d1-1]
		cell := p.InsertCell(e.Values[d1-1], event.SecondGreatest(e, d1))
		relevant := p.RelevantCells(q)
		ok := false
		for _, c := range relevant {
			if c == cell {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("event %v (cell %v of P%d) missed by query %v (relevant %v)",
				e, cell, d1, q, relevant)
		}
	}
	if found < 50 {
		t.Fatalf("only %d matching trials; test is vacuous", found)
	}
}

// TestResolveFindsStoredCellPartial extends the recall property to
// partial-match queries, including ties.
func TestResolveFindsStoredCellPartial(t *testing.T) {
	pools := paperPools()
	src := rng.New(42)
	found := 0
	for trial := 0; trial < 3000; trial++ {
		vals := []float64{src.Float64(), src.Float64(), src.Float64()}
		if src.Bool(0.3) { // force ties regularly
			vals[src.Intn(3)] = vals[src.Intn(3)]
		}
		e := event.New(vals...)
		var ranges []event.Range
		for j := 0; j < 3; j++ {
			if src.Bool(0.4) {
				ranges = append(ranges, event.Unspecified())
				continue
			}
			lo := src.Float64() * 0.9
			hi := lo + src.Float64()*(1-lo)
			ranges = append(ranges, event.Span(lo, hi))
		}
		q := event.NewQuery(ranges...)
		if q.Unspecified() == 3 || !q.Matches(e) {
			continue
		}
		found++
		rq := q.Rewrite()
		// Any of the candidate cells must be found (the system stores the
		// event in exactly one of them).
		for _, d1 := range event.GreatestDims(e) {
			p := pools[d1-1]
			cell := p.InsertCell(e.Values[d1-1], event.SecondGreatest(e, d1))
			ok := false
			for _, c := range p.RelevantCells(rq) {
				if c == cell {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("event %v (cell %v of P%d) missed by partial query %v", e, cell, d1, q)
			}
		}
	}
	if found < 50 {
		t.Fatalf("only %d matching trials; test is vacuous", found)
	}
}

// TestPruningIsEffective quantifies the paper's pruning claim: a narrow
// exact-match query must touch only a small fraction of the 3·l² cells.
func TestPruningIsEffective(t *testing.T) {
	pools := paperPools()
	q := event.NewQuery(event.Span(0.2, 0.25), event.Span(0.2, 0.25), event.Span(0.2, 0.25))
	total := 0
	for _, p := range pools {
		total += len(p.RelevantCells(q))
	}
	if total > 8 {
		t.Errorf("narrow query touches %d cells of 75; pruning ineffective", total)
	}
	if total == 0 {
		t.Error("narrow query touches no cells; resolving broken")
	}
}

func TestPoolCellsAndContains(t *testing.T) {
	p := Pool{Dim: 1, Pivot: CellID{X: 2, Y: 3}, Side: 4}
	cells := p.Cells()
	if len(cells) != 16 {
		t.Fatalf("Cells() returned %d, want 16", len(cells))
	}
	for _, c := range cells {
		if !p.ContainsCell(c) {
			t.Errorf("cell %v not contained in its own pool", c)
		}
	}
	if p.ContainsCell(CellID{X: 1, Y: 3}) || p.ContainsCell(CellID{X: 6, Y: 3}) {
		t.Error("ContainsCell accepts outside cells")
	}
}
