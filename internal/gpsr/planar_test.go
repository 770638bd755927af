package gpsr

import (
	"slices"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// checkPlanar fails t unless every planar row of r equals
// refPlanarizeNode under r's exclusion set.
func checkPlanar(t testing.TB, r *Router, what string) {
	t.Helper()
	r.ensurePlanar()
	for u, row := range r.planar {
		if want := r.refPlanarizeNode(u); !slices.Equal(row, want) {
			t.Fatalf("%s: planar row %d = %v, reference %v", what, u, row, want)
		}
	}
}

// planarLayouts are the deployments the planarization is held to its
// reference on: uniform ones at three sizes, a clustered one, a sparse
// one whose bucket grid is clamped, a lattice (witnesses exactly on the
// disc), and hand-placed co-located and border nodes.
func planarLayouts(t *testing.T) map[string]*field.Layout {
	clustered, err := field.GenerateClustered(field.DefaultSpec(400), 3, 0.05, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	scatter := make([]geo.Point, 400)
	for i := range scatter {
		scatter[i] = geo.Pt(src.Uniform(0, 3000), src.Uniform(0, 3000))
	}
	sparse, err := field.FromPositions(scatter, 3000, 70)
	if err != nil {
		t.Fatal(err)
	}
	edge := append(append([]geo.Point(nil), scatter[:150]...),
		geo.Pt(0, 0), geo.Pt(3000, 0), geo.Pt(0, 3000), geo.Pt(3000, 3000),
		geo.Pt(0, 1500), geo.Pt(3000, 1500), geo.Pt(1500, 0), geo.Pt(1500, 3000),
		geo.Pt(0, 0), geo.Pt(3000, 3000), geo.Pt(1500, 1500), geo.Pt(1500, 1500), geo.Pt(1500, 1500))
	for i := range edge {
		edge[i] = geo.Pt(edge[i].X/15, edge[i].Y/15)
	}
	border, err := field.FromPositions(edge, 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*field.Layout{
		"uniform 120":  genLayout(t, 120, 120),
		"uniform 900":  genLayout(t, 900, 900),
		"uniform 3600": genLayout(t, 3600, 3600),
		"clustered":    clustered,
		"sparse":       sparse,
		"lattice":      gridLayout(t, 9, 20),
		"duplicates":   withDuplicates(t, genLayout(t, 300, 12)),
		"border":       border,
	}
}

// TestPlanarMatchesReference holds the local-array Gabriel kernel to
// refPlanarizeNode: after New, whose rows must be carved with no spare
// capacity, then after each round of Exclude/Restore flips. Small rounds
// take the incremental refresh and large ones the full rebuild; every
// row is compared each time, so a row that grew into its neighbour's
// storage fails too.
func TestPlanarMatchesReference(t *testing.T) {
	for name, l := range planarLayouts(t) {
		t.Run(name, func(t *testing.T) {
			r := New(l)
			checkPlanar(t, r, "new")
			for u, row := range r.planar {
				if cap(row) != len(row) {
					t.Fatalf("row %d has capacity %d past its %d edges", u, cap(row), len(row))
				}
			}
			src := rng.New(int64(l.N()))
			n := l.N()
			for round := 0; round < 12; round++ {
				flips := 1 + src.Intn(3)
				if round%4 == 3 {
					flips = n/8 + 1
				}
				for range flips {
					if id := src.Intn(n); r.Excluded(id) {
						r.Restore(id)
					} else {
						r.Exclude(id)
					}
				}
				full := r.pendingFull
				checkPlanar(t, r, "round")
				if round%4 == 3 && !full {
					t.Fatalf("round %d: %d flips took the incremental path", round, flips)
				}
			}
		})
	}
}

// FuzzPlanarMatchesReference builds a deployment from the input — each
// pair of bytes one node on a 256-step lattice over a 100 m field, so
// co-located nodes, nodes on the border and witnesses exactly on a disc
// are common — and interleaves exclusions with rebuilds: an ops byte
// below 0x80 flips node b mod N, one at or above it compares every
// planar row with refPlanarizeNode.
func FuzzPlanarMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 255, 255, 128, 128, 128, 128, 64, 200, 10, 10, 30, 30}, []byte{2, 0x80, 3, 0x80, 2})
	f.Add([]byte{0, 0, 25, 0, 50, 0, 0, 25, 25, 25, 50, 25, 0, 50, 25, 50, 50, 50}, []byte{4, 0x80, 4, 0x80})
	f.Add([]byte{10, 200, 10, 200, 11, 201, 90, 90, 255, 0, 0, 255}, []byte{0, 1, 0xff, 5, 0xff})
	f.Fuzz(func(t *testing.T, pos, ops []byte) {
		pts := make([]geo.Point, 0, min(len(pos)/2, 300))
		for i := 0; i+1 < len(pos) && len(pts) < cap(pts); i += 2 {
			pts = append(pts, geo.Pt(float64(pos[i])*100/255, float64(pos[i+1])*100/255))
		}
		if len(pts) == 0 {
			return
		}
		l, err := field.FromPositions(pts, 100, 30)
		if err != nil {
			t.Fatal(err)
		}
		r := New(l)
		checkPlanar(t, r, "new")
		for _, b := range ops {
			if b >= 0x80 {
				checkPlanar(t, r, "rebuild")
				continue
			}
			if id := int(b) % l.N(); r.Excluded(id) {
				r.Restore(id)
			} else {
				r.Exclude(id)
			}
		}
		checkPlanar(t, r, "end")
	})
}
