package gpsr

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// memoPair drives a memoised Router and a reference Router over one
// layout through the same exclusion history. Two Routers, so the memoised
// one's own invalidation is what keeps it honest.
type memoPair struct {
	t    testing.TB
	memo *Router
	ref  *Router
}

func newMemoPair(t testing.TB, l *field.Layout) *memoPair {
	return &memoPair{t: t, memo: New(l), ref: New(l)}
}

func (p *memoPair) exclude(id int) { p.memo.Exclude(id); p.ref.Exclude(id) }
func (p *memoPair) restore(id int) { p.memo.Restore(id); p.ref.Restore(id) }

// route checks memo == reference on one (src, dst) and returns the error
// both agreed on.
func (p *memoPair) route(src, dst int) error {
	p.t.Helper()
	got, gotErr := p.memo.RouteToNode(src, dst)
	want, wantErr := refRouteToNode(p.ref, src, dst)
	if !sameResult(got, gotErr, want, wantErr) {
		p.t.Fatalf("route %d→%d (%d excluded):\n memo %+v, err %v\n ref  %+v, err %v",
			src, dst, p.ref.NumExcluded(), got, gotErr, want, wantErr)
	}
	return gotErr
}

func sameResult(a Result, aErr error, b Result, bErr error) bool {
	if (aErr == nil) != (bErr == nil) {
		return false
	}
	if aErr != nil && (aErr.Error() != bErr.Error() ||
		errors.Is(aErr, ErrUnreachable) != errors.Is(bErr, ErrUnreachable)) {
		return false
	}
	return a.Home == b.Home && a.GreedyHops == b.GreedyHops &&
		a.PerimeterHops == b.PerimeterHops && slices.Equal(a.Path, b.Path)
}

// bridgeLayout is two 3×3 lattices joined by one node (id 9): excluding
// it partitions the deployment.
func bridgeLayout(t testing.TB) (l *field.Layout, bridge int) {
	t.Helper()
	var pts []geo.Point
	lattice := func(x0 float64) {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				pts = append(pts, geo.Pt(x0+25*float64(x), 25*float64(y)))
			}
		}
	}
	lattice(0)
	bridge = len(pts)
	pts = append(pts, geo.Pt(80, 25))
	lattice(110)
	l, err := field.FromPositions(pts, 160, 40)
	if err != nil {
		t.Fatal(err)
	}
	return l, bridge
}

// withDuplicates returns l with every 7th node moved onto the position of
// the node before it.
func withDuplicates(t testing.TB, l *field.Layout) *field.Layout {
	t.Helper()
	pts := append([]geo.Point(nil), l.Positions...)
	for i := 7; i < len(pts); i += 7 {
		pts[i] = pts[i-1]
	}
	dup, err := field.FromPositions(pts, l.Side, l.Spec.RadioRange)
	if err != nil {
		t.Fatal(err)
	}
	return dup
}

func memoLayouts(t testing.TB) map[string]*field.Layout {
	clustered, err := field.GenerateClustered(field.DefaultSpec(250), 4, 0.12, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	bridge, _ := bridgeLayout(t)
	return map[string]*field.Layout{
		"uniform":    genLayout(t, 300, 11),
		"clustered":  clustered,
		"duplicates": withDuplicates(t, genLayout(t, 200, 12)),
		"bridge":     bridge,
	}
}

func TestRouteMemoMatchesReference(t *testing.T) {
	for name, l := range memoLayouts(t) {
		t.Run(name, func(t *testing.T) {
			p := newMemoPair(t, l)
			src := rng.New(5)
			n := l.N()
			// A small hot set makes (src, dst) pairs — and the (cur, dst)
			// keys along their paths — repeat, before and after flips.
			hot := src.Perm(n)[:min(n, 12)]
			pick := func() int {
				if src.Bool(0.7) {
					return hot[src.Intn(len(hot))]
				}
				return src.Intn(n)
			}
			var down []int
			for i := 0; i < 4000; i++ {
				switch roll := src.Intn(100); {
				case roll < 90:
					p.route(pick(), pick())
				case roll < 96 && len(down) < n/4:
					id := src.Intn(n)
					p.exclude(id)
					down = append(down, id)
				case len(down) > 0:
					k := src.Intn(len(down))
					p.restore(down[k])
					down = slices.Delete(down, k, k+1)
				}
			}
		})
	}
}

// TestRouteMemoAcrossPartition warms the memo across the bridge, cuts it,
// and heals it: the warmed entries must not survive either flip.
func TestRouteMemoAcrossPartition(t *testing.T) {
	l, bridge := bridgeLayout(t)
	p := newMemoPair(t, l)
	far := l.N() - 1
	for round := 0; round < 2; round++ {
		if err := p.route(0, far); err != nil {
			t.Fatalf("round %d: connected route: %v", round, err)
		}
		p.exclude(bridge)
		if err := p.route(0, far); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("round %d: route across the cut: err = %v, want ErrUnreachable", round, err)
		}
		if err := p.route(0, 8); err != nil {
			t.Fatalf("round %d: route inside one side of the cut: %v", round, err)
		}
		p.restore(bridge)
	}
}

// FuzzRouteMemo interprets the input as a script of routes and exclusion
// flips over one of three small layouts and checks memo == reference
// after every step.
func FuzzRouteMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 18, 0, 0, 18, 2, 9, 0, 0, 0, 18, 3, 9, 0, 0, 0, 18})
	f.Add([]byte{1, 0, 3, 40, 0, 3, 40, 2, 17, 0, 0, 3, 40, 1, 40, 3})
	f.Add([]byte{2, 0, 6, 7, 0, 7, 6, 2, 6, 0, 0, 5, 7, 3, 6, 0, 0, 5, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		var l *field.Layout
		switch script[0] % 3 {
		case 0:
			l, _ = bridgeLayout(t)
		case 1:
			l = genLayout(t, 60, 21)
		case 2:
			l = withDuplicates(t, genLayout(t, 60, 22))
		}
		p := newMemoPair(t, l)
		n := l.N()
		for i := 1; i+2 < len(script); i += 3 {
			a, b := int(script[i+1])%n, int(script[i+2])%n
			switch script[i] % 4 {
			case 0, 1:
				p.route(a, b)
			case 2:
				p.exclude(a)
			case 3:
				p.restore(a)
			}
		}
	})
}

// TestRouterConcurrentReaders routes overlapping (src, dst) sets from 8
// goroutines on one Router with a static exclusion set, and resolves the
// home of a point beside each route; every result must equal the
// sequential reference. The readers race to build the component labels
// HomeNode needs. Run under -race by make race-parallel.
func TestRouterConcurrentReaders(t *testing.T) {
	l := genLayout(t, 300, 31)
	shared, ref := New(l), New(l)
	for _, id := range []int{17, 90, 201} {
		shared.Exclude(id)
		ref.Exclude(id)
	}
	type pair struct{ src, dst int }
	src := rng.New(32)
	pairs := make([]pair, 600)
	want := make([]Result, len(pairs))
	wantErr := make([]error, len(pairs))
	points := make([]geo.Point, len(pairs))
	wantHome := make([]int, len(pairs))
	for i := range pairs {
		pairs[i] = pair{src.Intn(l.N()), src.Intn(40)}
		want[i], wantErr[i] = refRouteToNode(ref, pairs[i].src, pairs[i].dst)
		points[i] = geo.Pt(src.Uniform(0, l.Side), src.Uniform(0, l.Side))
		wantHome[i] = -1
		if probe, err := ref.Route(pairs[i].src, points[i]); err == nil {
			wantHome[i] = probe.Home
		}
	}
	// The first route after a flip re-planarizes and needs the Router to
	// itself; the readers start from a settled one.
	shared.PlanarNeighbors(0)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker covers every pair, each from its own offset.
			for k := range pairs {
				i := (k + w*len(pairs)/workers) % len(pairs)
				got, err := shared.RouteToNode(pairs[i].src, pairs[i].dst)
				if !sameResult(got, err, want[i], wantErr[i]) {
					t.Errorf("worker %d: route %d→%d: got %+v, err %v; want %+v, err %v",
						w, pairs[i].src, pairs[i].dst, got, err, want[i], wantErr[i])
					return
				}
				if home, _ := shared.HomeNode(pairs[i].src, points[i]); home != wantHome[i] {
					t.Errorf("worker %d: HomeNode(%d, %v) = %d, want %d",
						w, pairs[i].src, points[i], home, wantHome[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestOutOfRangeIDs(t *testing.T) {
	l := genLayout(t, 50, 41)
	r := New(l)
	n := l.N()
	for _, id := range []int{-1, n, n + 1000} {
		if r.Excluded(id) {
			t.Errorf("Excluded(%d) = true for an id outside the deployment", id)
		}
	}
	routes := []struct {
		name string
		call func() error
	}{
		{"RouteToNode src<0", func() error { _, err := r.RouteToNode(-1, 3); return err }},
		{"RouteToNode src=N", func() error { _, err := r.RouteToNode(n, 3); return err }},
		{"RouteToNode dst<0", func() error { _, err := r.RouteToNode(3, -1); return err }},
		{"RouteToNode dst=N", func() error { _, err := r.RouteToNode(3, n); return err }},
		{"RouteToNodeBuf dst=N", func() error { _, err := r.RouteToNodeBuf(3, n, make([]int, 0, 8)); return err }},
		{"Route src<0", func() error { _, err := r.Route(-1, geo.Pt(10, 10)); return err }},
		{"Route src=N", func() error { _, err := r.Route(n, geo.Pt(10, 10)); return err }},
		{"HomeNode src=N", func() error { _, err := r.HomeNode(n, geo.Pt(10, 10)); return err }},
	}
	for _, tc := range routes {
		if err := tc.call(); !errors.Is(err, ErrUnreachable) {
			t.Errorf("%s: err = %v, want ErrUnreachable", tc.name, err)
		}
	}
	// A rejected id leaves the router usable.
	if _, err := r.RouteToNode(0, n-1); err != nil {
		t.Errorf("in-range route after rejected ids: %v", err)
	}
}
