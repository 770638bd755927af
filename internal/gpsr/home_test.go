package gpsr

import (
	"errors"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// checkHome holds HomeNode to its specification, the perimeter probe: the
// same home, or the same error.
func checkHome(t testing.TB, r *Router, src int, target geo.Point) {
	t.Helper()
	probe, wantErr := r.Route(src, target)
	got, err := r.HomeNode(src, target)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || got != -1 ||
			errors.Is(err, ErrUnreachable) != errors.Is(wantErr, ErrUnreachable) {
			t.Fatalf("HomeNode(%d, %v) = %d, %v; probe failed with %v", src, target, got, err, wantErr)
		}
	case err != nil || got != probe.Home:
		t.Fatalf("HomeNode(%d, %v) = %d, %v; probe delivers at %d (%d of %d nodes excluded)",
			src, target, got, err, probe.Home, r.NumExcluded(), r.layout.N())
	}
}

func TestHomeNodeMatchesProbe(t *testing.T) {
	bridge, _ := bridgeLayout(t)
	layouts := []struct {
		name  string
		l     *field.Layout
		pairs int
	}{
		{"N=300", genLayout(t, 300, 61), 600},
		{"N=900", genLayout(t, 900, 62), 400},
		{"N=3600", genLayout(t, 3600, 63), 150},
		{"co-located", withDuplicates(t, genLayout(t, 300, 64)), 600},
		{"bridge", bridge, 300},
	}
	for _, tc := range layouts {
		t.Run(tc.name, func(t *testing.T) {
			l, n := tc.l, tc.l.N()
			r := New(l)
			src := rng.New(65)
			order := src.Perm(n)
			down := 0
			check := func() {
				for i := 0; i < tc.pairs; i++ {
					target := geo.Pt(src.Uniform(-0.1*l.Side, 1.1*l.Side), src.Uniform(-0.1*l.Side, 1.1*l.Side))
					if i%8 == 0 {
						// Exactly on a node, alive or not.
						target = l.Pos(src.Intn(n))
					}
					checkHome(t, r, src.Intn(n), target)
				}
				if down > 0 {
					checkHome(t, r, order[0], l.Pos(order[n-1])) // excluded source
				}
				checkHome(t, r, -1, l.Pos(0))
				checkHome(t, r, n, l.Pos(0))
			}
			for _, pct := range []int{0, 5, 20, 40, 60} {
				for ; down < n*pct/100; down++ {
					r.Exclude(order[down])
				}
				check()
			}
			// Heal one node at a time for a while, then completely.
			for ; down > n/2; down-- {
				r.Restore(order[down-1])
				checkHome(t, r, order[n-1], l.Pos(order[down-1]))
			}
			for ; down > 0; down-- {
				r.Restore(order[down-1])
			}
			check()
		})
	}
}

// TestHomeNodeAcrossPartition cuts the bridge layout in two: each side
// homes a point on its own nearest node, and the answer follows the cut
// being made and healed.
func TestHomeNodeAcrossPartition(t *testing.T) {
	l, bridge := bridgeLayout(t)
	r := New(l)
	left, right := 0, l.N()-1
	target := l.Pos(right).Add(geo.Pt(1, 1))
	for round := 0; round < 2; round++ {
		for _, src := range []int{left, right} {
			if home, err := r.HomeNode(src, target); err != nil || home != right {
				t.Fatalf("round %d, connected: HomeNode(%d) = %d, %v; want %d", round, src, home, err, right)
			}
		}
		r.Exclude(bridge)
		checkHome(t, r, left, target)
		checkHome(t, r, right, target)
		if home, _ := r.HomeNode(left, target); home != 8 {
			t.Fatalf("round %d, cut: HomeNode(%d) = %d, want 8, the left side's nearest node", round, left, home)
		}
		if home, _ := r.HomeNode(right, target); home != right {
			t.Fatalf("round %d, cut: HomeNode(%d) = %d, want %d", round, right, home, right)
		}
		r.Restore(bridge)
	}
}

// FuzzHomeNode checks HomeNode against the probe on one of three small
// layouts under an arbitrary exclusion mask. Coordinates come on a 2⁻¹⁶
// grid spanning the field and a margin around it, which the lattice
// layout turns into exact distance ties.
func FuzzHomeNode(f *testing.F) {
	f.Add(int64(0), []byte{0, 2}, 0, uint16(50000), uint16(20000))
	f.Add(int64(1), []byte{0xff, 0, 0x0f}, 40, uint16(1000), uint16(64000))
	f.Add(int64(2), []byte{0x81, 0x40}, 7, uint16(30000), uint16(30000))
	f.Add(int64(0), []byte{}, -1, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, mask []byte, src int, x, y uint16) {
		var l *field.Layout
		switch seed % 3 {
		case 0:
			l, _ = bridgeLayout(t)
		case 1, -1:
			l = genLayout(t, 60, 21)
		default:
			l = withDuplicates(t, genLayout(t, 60, 22))
		}
		r := New(l)
		for i := 0; i < l.N() && i/8 < len(mask); i++ {
			if mask[i/8]>>(i%8)&1 == 1 {
				r.Exclude(i)
			}
		}
		at := func(v uint16) float64 { return (float64(v)/(1<<16)*1.5 - 0.25) * l.Side }
		checkHome(t, r, src, geo.Pt(at(x), at(y)))
	})
}
