package dim

import (
	"slices"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// refBuildZones is buildZones as it stood before the in-place partition:
// refSplit's tree of one heap object per node, the owned lists grown by
// append.
func (s *System) refBuildZones() {
	l := s.net.Layout()
	all := make([]int, l.N())
	for i := range all {
		all[i] = i
	}
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(l.Side, l.Side)}
	s.root = s.refSplit(Code{}, bounds, all, l)
	// The DFS in split appends leaves child-0-first, so zones are already
	// in code order — the spatially coherent traversal order Query uses.
	s.owned, s.relevant = make([][]int32, l.N()), make([]uint32, len(s.zones))
	for i, z := range s.zones {
		if z.Code.Len() > s.maxDepth {
			s.maxDepth = z.Code.Len()
		}
		s.owned[z.Owner] = append(s.owned[z.Owner], int32(i))
	}
}

// refSplit is split as it stood before the in-place partition: each
// level appends its nodes into two fresh child lists.
func (s *System) refSplit(code Code, rect geo.Rect, nodes []int, l *field.Layout) *treeNode {
	if len(nodes) <= 1 || code.Len() >= maxCodeBits {
		owner := -1
		if len(nodes) >= 1 {
			owner = nodes[0]
		} else {
			owner = l.Nearest(rect.Center())
		}
		s.zones = append(s.zones, Zone{Code: code, Rect: rect, Owner: owner})
		return &treeNode{zone: len(s.zones) - 1}
	}
	var lo, hi geo.Rect
	if code.Len()%2 == 0 {
		lo, hi = rect.SplitVertical()
	} else {
		lo, hi = rect.SplitHorizontal()
	}
	var loNodes, hiNodes []int
	for _, n := range nodes {
		// Half-open rectangles tile the plane, so each node lands in
		// exactly one child.
		if lo.Contains(l.Pos(n)) {
			loNodes = append(loNodes, n)
		} else {
			hiNodes = append(hiNodes, n)
		}
	}
	t := &treeNode{zone: -1}
	t.children[0] = s.refSplit(code.Append(0), lo, loNodes, l)
	t.children[1] = s.refSplit(code.Append(1), hi, hiNodes, l)
	return t
}

// sameTree reports whether two zone trees have the same shape and the
// same zone index at every leaf.
func sameTree(a, b *treeNode) bool {
	if a.zone != b.zone {
		return false
	}
	return a.zone >= 0 || sameTree(a.children[0], b.children[0]) && sameTree(a.children[1], b.children[1])
}

// TestZoneTreeMatchesReference holds buildZones to refBuildZones: the same
// zones (code, rect and owner) in the same order, the same tree, depth and
// owned lists, and the same ZoneOf for random values. The layouts are
// uniform at three sizes, clustered, sparse with a clamped bucket grid,
// and hand-placed with co-located nodes — which only the depth cap
// separates, so their leaf's owner is the first of its list — and nodes
// on the border.
func TestZoneTreeMatchesReference(t *testing.T) {
	must := func(l *field.Layout, err error) *field.Layout {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	src := rng.New(7)
	scatter := make([]geo.Point, 400)
	for i := range scatter {
		scatter[i] = geo.Pt(src.Uniform(0, 3000), src.Uniform(0, 3000))
	}
	// Co-located pairs and triples whose ids interleave with other nodes,
	// the four corners and points on every side.
	edge := []geo.Point{
		geo.Pt(60, 60), geo.Pt(0, 0), geo.Pt(30, 70), geo.Pt(60, 60), geo.Pt(100, 100),
		geo.Pt(30, 70), geo.Pt(0, 100), geo.Pt(100, 0), geo.Pt(60, 60), geo.Pt(50, 0),
		geo.Pt(0, 50), geo.Pt(100, 50), geo.Pt(50, 100), geo.Pt(50, 50), geo.Pt(25, 75),
		geo.Pt(0, 0), geo.Pt(80, 20), geo.Pt(30, 70), geo.Pt(10, 90), geo.Pt(80, 20),
	}
	layouts := map[string]*field.Layout{
		"uniform 120":  must(field.Generate(field.DefaultSpec(120), rng.New(120))),
		"uniform 900":  must(field.Generate(field.DefaultSpec(900), rng.New(900))),
		"uniform 3600": must(field.Generate(field.DefaultSpec(3600), rng.New(3600))),
		"clustered":    must(field.GenerateClustered(field.DefaultSpec(400), 3, 0.05, rng.New(6))),
		"sparse":       must(field.FromPositions(scatter, 3000, 70)),
		"co-located":   must(field.FromPositions(edge, 100, 60)),
	}
	for name, l := range layouts {
		t.Run(name, func(t *testing.T) {
			s, err := New(network.New(l), gpsr.New(l), 3)
			if err != nil {
				t.Fatal(err)
			}
			ref := &System{net: s.net, dims: 3}
			ref.refBuildZones()
			if !slices.Equal(s.zones, ref.zones) {
				for i := range min(len(s.zones), len(ref.zones)) {
					if s.zones[i] != ref.zones[i] {
						t.Fatalf("zone %d = %+v, reference %+v", i, s.zones[i], ref.zones[i])
					}
				}
				t.Fatalf("%d zones, reference %d", len(s.zones), len(ref.zones))
			}
			if !sameTree(s.root, ref.root) || s.maxDepth != ref.maxDepth {
				t.Fatalf("tree differs from the reference (depth %d, reference %d)", s.maxDepth, ref.maxDepth)
			}
			for n := range ref.owned {
				if !slices.Equal(s.owned[n], ref.owned[n]) {
					t.Fatalf("owned[%d] = %v, reference %v", n, s.owned[n], ref.owned[n])
				}
			}
			vsrc := rng.New(int64(l.N()))
			for range 2000 {
				v := []float64{vsrc.Float64(), vsrc.Float64(), vsrc.Float64()}
				if got, want := s.ZoneOf(v), ref.ZoneOf(v); got != want {
					t.Fatalf("ZoneOf(%v) = %+v, reference %+v", v, got, want)
				}
			}
		})
	}
}
