package field

import (
	"math"
	"testing"

	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"default", DefaultSpec(300), false},
		{"one node", Spec{Nodes: 1, RadioRange: 40, AvgNeighbors: 20}, true},
		{"zero range", Spec{Nodes: 10, RadioRange: 0, AvgNeighbors: 20}, true},
		{"zero density", Spec{Nodes: 10, RadioRange: 40, AvgNeighbors: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSideMatchesDensityRule(t *testing.T) {
	spec := DefaultSpec(900)
	side := spec.Side()
	// Expected neighbours at this side: N·π·r²/side² should equal 20.
	got := float64(spec.Nodes) * math.Pi * spec.RadioRange * spec.RadioRange / (side * side)
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("density from Side() = %v, want 20", got)
	}
}

func TestGenerateProperties(t *testing.T) {
	src := rng.New(1)
	l, err := Generate(DefaultSpec(300), src)
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 300 {
		t.Fatalf("N = %d", l.N())
	}
	bounds := l.Bounds()
	for i := 0; i < l.N(); i++ {
		if !bounds.ContainsClosed(l.Pos(i)) {
			t.Fatalf("node %d at %v outside field %v", i, l.Pos(i), bounds)
		}
	}
	if !l.Connected() {
		t.Error("generated layout must be connected")
	}
	// Boundary effects push the realized mean degree below 20 somewhat.
	if d := l.AvgDegree(); d < 12 || d > 26 {
		t.Errorf("average degree = %v, want near 20", d)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultSpec(300), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSpec(300), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if !a.Pos(i).Equal(b.Pos(i)) {
			t.Fatalf("node %d differs across same-seed runs", i)
		}
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	if _, err := Generate(Spec{Nodes: 1, RadioRange: 40, AvgNeighbors: 20}, rng.New(1)); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestNeighborsSymmetricAndCorrect(t *testing.T) {
	src := rng.New(2)
	l, err := Generate(DefaultSpec(300), src)
	if err != nil {
		t.Fatal(err)
	}
	r2 := l.Spec.RadioRange * l.Spec.RadioRange

	// Brute-force cross-check on a sample of nodes.
	for _, i := range []int{0, 17, 50, 123, 299} {
		want := make(map[int]bool)
		for j := 0; j < l.N(); j++ {
			if j != i && l.Pos(i).Dist2(l.Pos(j)) <= r2 {
				want[j] = true
			}
		}
		got := l.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbours, brute force %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("node %d: spurious neighbour %d", i, j)
			}
		}
	}

	// Symmetry over all pairs.
	inNbrs := func(id int, nbrs []int) bool {
		for _, n := range nbrs {
			if n == id {
				return true
			}
		}
		return false
	}
	for i := 0; i < l.N(); i++ {
		for _, j := range l.Neighbors(i) {
			if !inNbrs(i, l.Neighbors(j)) {
				t.Fatalf("asymmetric link %d-%d", i, j)
			}
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	l, err := Generate(DefaultSpec(300), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.N(); i++ {
		nbrs := l.Neighbors(i)
		for k := 1; k < len(nbrs); k++ {
			if nbrs[k-1] >= nbrs[k] {
				t.Fatalf("node %d neighbours not sorted: %v", i, nbrs)
			}
		}
	}
}

func TestFromPositions(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(25, 0)}
	l, err := FromPositions(pts, 100, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors(0) = %v, want [1]", got)
	}
	if got := l.Neighbors(1); len(got) != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
	if !l.Connected() {
		t.Error("chain should be connected")
	}
}

func TestFromPositionsRejectsOutside(t *testing.T) {
	if _, err := FromPositions([]geo.Point{geo.Pt(-1, 0)}, 100, 10); err == nil {
		t.Error("position outside field accepted")
	}
	if _, err := FromPositions(nil, 100, 10); err == nil {
		t.Error("empty positions accepted")
	}
}

func TestDisconnectedDetected(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(90, 90)}
	l, err := FromPositions(pts, 100, 15)
	if err != nil {
		t.Fatal(err)
	}
	if l.Connected() {
		t.Error("layout with an isolated node reported connected")
	}
}

// bruteNearest is the specification of NearestFunc: a linear scan, lowest
// id on an exact tie, tied when a second accepted node shares the minimum.
func bruteNearest(l *Layout, p geo.Point, ok func(int) bool) (best int, tied bool) {
	best, bestD2 := -1, math.Inf(1)
	for j := 0; j < l.N(); j++ {
		if ok != nil && !ok(j) {
			continue
		}
		switch d2 := p.Dist2(l.Pos(j)); {
		case d2 < bestD2:
			best, bestD2, tied = j, d2, false
		case d2 == bestD2:
			tied = true
		}
	}
	return best, tied
}

func TestNearestBruteForce(t *testing.T) {
	mustLayout := func(l *Layout, err error) *Layout {
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
	layouts := map[string]*Layout{
		"dense":     mustLayout(Generate(DefaultSpec(600), rng.New(4))),
		"clustered": mustLayout(GenerateClustered(DefaultSpec(400), 3, 0.05, rng.New(6))),
		// Most buckets empty: the first hit is rings away from the point.
		"sparse": mustLayout(FromPositions(scatter(40, 1000, 7), 1000, 25)),
		// A radio range far below the node spacing: the grid is capped.
		"capped": mustLayout(FromPositions(scatter(30, 5000, 8), 5000, 1)),
		// The first hit (node 0, ring 1) is farther than node 1 in ring 2.
		"two rings": mustLayout(FromPositions([]geo.Point{geo.Pt(10.1, 10.1), geo.Pt(30.2, 15)}, 100, 10)),
		// Co-located and mirror-image nodes: exact ties.
		"ties": mustLayout(FromPositions([]geo.Point{
			geo.Pt(60, 50), geo.Pt(40, 50), geo.Pt(40, 50), geo.Pt(50, 60), geo.Pt(50, 40), geo.Pt(95, 95),
		}, 100, 10)),
		"single": mustLayout(FromPositions([]geo.Point{geo.Pt(0, 0)}, 0, 10)),
	}
	if got := layouts["two rings"].Nearest(geo.Pt(19.9, 15)); got != 1 {
		t.Errorf("two rings: Nearest((19.9,15)) = %d, want 1", got)
	}
	if got, tied := layouts["ties"].NearestFunc(geo.Pt(50, 50), nil); got != 0 || !tied {
		t.Errorf("ties: NearestFunc((50,50)) = %d tied=%v, want 0 tied", got, tied)
	}
	thirds := func(id int) bool { return id%3 != 0 }
	none := func(int) bool { return false }
	for name, l := range layouts {
		src := rng.New(5)
		points := []geo.Point{geo.Pt(0, 0), geo.Pt(l.Side, l.Side), geo.Pt(50, 50), geo.Pt(40, 50), geo.Pt(19.9, 15)}
		for trial := 0; trial < 300; trial++ {
			// A third of the points fall outside the field, some far out.
			points = append(points, geo.Pt(src.Uniform(-l.Side, 2*l.Side), src.Uniform(-0.2*l.Side, 1.2*l.Side)))
		}
		for _, p := range points {
			for pi, ok := range []func(int) bool{nil, thirds} {
				want, wantTied := bruteNearest(l, p, ok)
				got, tied := l.NearestFunc(p, ok)
				if got != want || tied != wantTied {
					t.Fatalf("%s: NearestFunc(%v, pred %d) = %d tied=%v, brute force %d tied=%v",
						name, p, pi, got, tied, want, wantTied)
				}
			}
			if want, _ := bruteNearest(l, p, nil); l.Nearest(p) != want {
				t.Fatalf("%s: Nearest(%v) = %d, brute force %d", name, p, l.Nearest(p), want)
			}
			if got, tied := l.NearestFunc(p, none); got != -1 || tied {
				t.Fatalf("%s: NearestFunc(%v, none) = %d tied=%v, want -1", name, p, got, tied)
			}
		}
	}
}

func TestNearestOutsideField(t *testing.T) {
	l, err := FromPositions([]geo.Point{geo.Pt(1, 1), geo.Pt(99, 99)}, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Nearest(geo.Pt(0, 0)); got != 0 {
		t.Errorf("Nearest origin = %d, want 0", got)
	}
	if got := l.Nearest(geo.Pt(100, 100)); got != 1 {
		t.Errorf("Nearest far corner = %d, want 1", got)
	}
}

func TestNearestWithin(t *testing.T) {
	l, err := FromPositions([]geo.Point{geo.Pt(10, 10), geo.Pt(50, 50)}, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NearestWithin(geo.Pt(11, 10), 5); got != 0 {
		t.Errorf("NearestWithin close = %d, want 0", got)
	}
	if got := l.NearestWithin(geo.Pt(30, 10), 5); got != -1 {
		t.Errorf("NearestWithin far = %d, want -1", got)
	}
}

func TestNearestWithinPointOutsideBounds(t *testing.T) {
	l, err := FromPositions([]geo.Point{geo.Pt(1, 1), geo.Pt(99, 99)}, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	// Probes beyond the field boundary must still resolve through the
	// bucket ring scan (negative bucket coordinates).
	if got := l.NearestWithin(geo.Pt(-3, -4), 10); got != 0 {
		t.Errorf("NearestWithin outside near corner = %d, want 0", got)
	}
	if got := l.NearestWithin(geo.Pt(-3, -4), 5); got != -1 {
		t.Errorf("NearestWithin outside, radius short of node 0 = %d, want -1", got)
	}
	if got := l.NearestWithin(geo.Pt(200, 200), 1000); got != 1 {
		t.Errorf("NearestWithin far outside, generous radius = %d, want 1", got)
	}
}

func TestNearestWithinExactDistance(t *testing.T) {
	l, err := FromPositions([]geo.Point{geo.Pt(10, 10), geo.Pt(20, 10)}, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	// The cutoff is inclusive: a node exactly dist away qualifies.
	if got := l.NearestWithin(geo.Pt(10, 15), 5); got != 0 {
		t.Errorf("NearestWithin at exact distance = %d, want 0", got)
	}
	// A probe equidistant from both nodes resolves to the lower ID.
	if got := l.NearestWithin(geo.Pt(15, 10), 5); got != 0 {
		t.Errorf("NearestWithin equidistant tie = %d, want 0", got)
	}
}

func TestNearestWithinClusteredLayout(t *testing.T) {
	// A clustered deployment leaves most buckets empty; the ring scan
	// must walk through them to the far cluster instead of giving up.
	pts := []geo.Point{
		geo.Pt(2, 2), geo.Pt(3, 2), geo.Pt(2, 3), // cluster in one corner
		geo.Pt(97, 97), // lone node in the opposite corner
	}
	l, err := FromPositions(pts, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NearestWithin(geo.Pt(90, 90), 20); got != 3 {
		t.Errorf("NearestWithin across empty buckets = %d, want 3", got)
	}
	if got := l.NearestWithin(geo.Pt(50, 50), 10); got != -1 {
		t.Errorf("NearestWithin mid-gap, small radius = %d, want -1", got)
	}
	// (97,97) is marginally closer to mid-field than any cluster node.
	if got := l.NearestWithin(geo.Pt(50, 50), 100); got != 3 {
		t.Errorf("NearestWithin mid-gap, large radius = %d, want 3", got)
	}
	if got := l.NearestWithin(geo.Pt(10, 10), 100); got != 1 {
		t.Errorf("NearestWithin near cluster = %d, want 1", got)
	}
}

func TestLargerNetworkSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping large generation in -short mode")
	}
	for _, n := range []int{600, 900, 1200} {
		l, err := Generate(DefaultSpec(n), rng.New(int64(n)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !l.Connected() {
			t.Errorf("n=%d not connected", n)
		}
	}
}

func TestGenerateClustered(t *testing.T) {
	spec := DefaultSpec(600)
	l, err := GenerateClustered(spec, 4, 0.12, rng.New(40))
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 600 {
		t.Fatalf("N = %d", l.N())
	}
	if !l.Connected() {
		t.Fatal("clustered layout must be connected")
	}
	bounds := l.Bounds()
	for i := 0; i < l.N(); i++ {
		if !bounds.ContainsClosed(l.Pos(i)) {
			t.Fatalf("node %d outside field", i)
		}
	}

	// Clustering shows up as higher degree variance than uniform
	// placement at the same density.
	u, err := Generate(spec, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	varDeg := func(layout *Layout) float64 {
		mean := layout.AvgDegree()
		var ss float64
		for i := 0; i < layout.N(); i++ {
			d := float64(len(layout.Neighbors(i))) - mean
			ss += d * d
		}
		return ss / float64(layout.N())
	}
	if varDeg(l) <= varDeg(u) {
		t.Errorf("clustered degree variance %.1f not above uniform %.1f", varDeg(l), varDeg(u))
	}
}

func TestGenerateClusteredValidation(t *testing.T) {
	spec := DefaultSpec(100)
	if _, err := GenerateClustered(spec, 0, 0.1, rng.New(1)); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := GenerateClustered(spec, 3, 0, rng.New(1)); err == nil {
		t.Error("zero spread accepted")
	}
	if _, err := GenerateClustered(Spec{Nodes: 1, RadioRange: 40, AvgNeighbors: 20}, 3, 0.1, rng.New(1)); err == nil {
		t.Error("invalid spec accepted")
	}
}

// NearestWithin returns the node closest to p among those within dist of
// p, or -1 when none qualifies.
func (l *Layout) NearestWithin(p geo.Point, dist float64) int {
	id := l.Nearest(p)
	if id < 0 || p.Dist(l.Positions[id]) > dist {
		return -1
	}
	return id
}
