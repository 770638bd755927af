package field

import (
	"math"
	"slices"
	"sort"
	"testing"

	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// refIndex is index as it stood before the one-pass pair scan: two
// closure passes over every node's 3×3 block, each pair tested from both
// of its ends, every row sorted whole. It builds l's grid and rows.
func (l *Layout) refIndex() {
	r := l.Spec.RadioRange
	n := len(l.Positions)
	maxW := int(math.Sqrt(float64(maxGridCellsPerNode*n))) + 1
	l.bucketLen = math.Max(r, l.Side/float64(maxW))
	l.gridW = 1
	if l.bucketLen > 0 {
		l.gridW = int(l.Side/l.bucketLen) + 1
	}

	// Counting sort of the nodes by cell; ids stay ascending within a cell.
	cells := l.gridW * l.gridW
	l.cellStart = make([]int32, cells+1)
	cellOf := make([]int32, n)
	for i, p := range l.Positions {
		c := int32(l.cellCoord(p.Y)*l.gridW + l.cellCoord(p.X))
		cellOf[i] = c
		l.cellStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		l.cellStart[c+1] += l.cellStart[c]
	}
	l.cellNodes = make([]int32, n)
	fill := append([]int32(nil), l.cellStart[:cells]...)
	for i, c := range cellOf {
		l.cellNodes[fill[c]] = int32(i)
		fill[c]++
	}

	// Adjacency is built in two passes into one flat backing array —
	// count degrees, then fill — so a layout costs a constant number of
	// allocations instead of per-node append-doubling.
	r2 := r * r
	total := 0
	for i, p := range l.Positions {
		l.refEachNear(p, func(j int) {
			if j != i && p.Dist2(l.Positions[j]) <= r2 {
				total++
			}
		})
	}
	flat := make([]int, 0, total)
	l.neighbors = make([][]int, n)
	for i, p := range l.Positions {
		from := len(flat)
		l.refEachNear(p, func(j int) {
			if j != i && p.Dist2(l.Positions[j]) <= r2 {
				flat = append(flat, j)
			}
		})
		nbrs := flat[from:len(flat):len(flat)]
		sort.Ints(nbrs)
		l.neighbors[i] = nbrs
	}
}

// refEachNear calls fn for every node in the 3×3 block of cells around p.
func (l *Layout) refEachNear(p geo.Point, fn func(j int)) {
	cx, cy := l.cellCoord(p.X), l.cellCoord(p.Y)
	x0, x1 := max(cx-1, 0), min(cx+1, l.gridW-1)
	for y := max(cy-1, 0); y <= min(cy+1, l.gridW-1); y++ {
		for _, j := range l.cellNodes[l.cellStart[y*l.gridW+x0]:l.cellStart[y*l.gridW+x1+1]] {
			fn(int(j))
		}
	}
}

// refLayouts is the layout set the index is held to its reference on:
// uniform deployments at three sizes, clustered ones, sparse ones whose
// grid is clamped, and hand-placed ones with co-located and border nodes.
func refLayouts(t *testing.T) map[string]*Layout {
	t.Helper()
	must := func(l *Layout, err error) *Layout {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	scatter := func(n int, side float64, seed int64) []geo.Point {
		src := rng.New(seed)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
		}
		return pts
	}
	// Border and co-located nodes: the four corners, points on every
	// side, pairs and a triple sharing a position, and a scatter between.
	edge := append(scatter(150, 200, 31),
		geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(0, 200), geo.Pt(200, 200),
		geo.Pt(0, 77), geo.Pt(200, 77), geo.Pt(77, 0), geo.Pt(77, 200),
		geo.Pt(40, 40), geo.Pt(40, 40), geo.Pt(120, 80), geo.Pt(120, 80), geo.Pt(120, 80),
		geo.Pt(200, 200), geo.Pt(0, 0), geo.Pt(100, 100), geo.Pt(100, 125))
	return map[string]*Layout{
		"uniform 120":   must(Generate(DefaultSpec(120), rng.New(120))),
		"uniform 900":   must(Generate(DefaultSpec(900), rng.New(900))),
		"uniform 3600":  must(Generate(DefaultSpec(3600), rng.New(3600))),
		"clustered 400": must(GenerateClustered(DefaultSpec(400), 3, 0.05, rng.New(6))),
		"clustered 900": must(GenerateClustered(DefaultSpec(900), 4, 0.12, rng.New(40))),
		"sparse":        must(FromPositions(scatter(40, 1000, 7), 1000, 25)),
		"capped":        must(FromPositions(scatter(300, 5000, 8), 5000, 1)),
		"capped dense":  must(FromPositions(scatter(400, 3000, 9), 3000, 70)),
		"border":        must(FromPositions(edge, 200, 40)),
		"one cell":      must(FromPositions(edge, 200, 500)),
		"single":        must(FromPositions([]geo.Point{geo.Pt(0, 0)}, 0, 10)),
	}
}

// TestIndexMatchesReference holds the one-pass index to refIndex: the
// same grid and the same neighbour rows, in the same order, each row
// carved with no spare capacity so no append can run into the next.
func TestIndexMatchesReference(t *testing.T) {
	for name, l := range refLayouts(t) {
		ref := &Layout{Spec: l.Spec, Side: l.Side, Positions: l.Positions}
		ref.refIndex()
		if l.gridW != ref.gridW || l.bucketLen != ref.bucketLen ||
			!slices.Equal(l.cellStart, ref.cellStart) || !slices.Equal(l.cellNodes, ref.cellNodes) {
			t.Fatalf("%s: grid differs from the reference", name)
		}
		for i := range l.Positions {
			got, want := l.Neighbors(i), ref.Neighbors(i)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d) = %v, reference %v", name, i, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: row %d has capacity %d past its %d neighbours", name, i, cap(got), len(got))
			}
		}
	}
}
