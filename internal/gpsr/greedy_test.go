package gpsr

import (
	"testing"
	"time"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// greedyLayouts are the deployments the greedy kernel is held to its
// reference on: a lattice, where equidistant neighbours exercise the
// first-in-row tie rule; a collinear chain; a clustered and a
// duplicate-coordinate deployment; and a uniform one at N=900, of which
// cur is sampled.
func greedyLayouts(t *testing.T) map[string]*field.Layout {
	chain := make([]geo.Point, 12)
	for i := range chain {
		chain[i] = geo.Pt(float64(i)*25, 50)
	}
	collinear, err := field.FromPositions(chain, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := field.GenerateClustered(field.DefaultSpec(250), 4, 0.12, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*field.Layout{
		"lattice":    gridLayout(t, 7, 30),
		"collinear":  collinear,
		"clustered":  clustered,
		"duplicates": withDuplicates(t, genLayout(t, 200, 12)),
		"uniform900": genLayout(t, 900, 13),
	}
}

// TestGreedyMatchesReference holds Router.greedy to refGreedy for every
// (cur, dst) — at most 150 curs per layout — and for points off the
// nodes, with every node alive and again after each of several rounds of
// Exclude/Restore flips, so both branch-free loops, with and without
// nodes excluded, answer as the reference does, -1 at a local minimum
// included.
func TestGreedyMatchesReference(t *testing.T) {
	for name, l := range greedyLayouts(t) {
		t.Run(name, func(t *testing.T) {
			r, src := New(l), rng.New(17)
			n := l.N()
			curs := src.Perm(n)[:min(n, 150)]
			targets := append([]geo.Point(nil), l.Positions...)
			for i := 0; i < 64; i++ {
				targets = append(targets, geo.Pt(src.Uniform(-10, l.Side+10), src.Uniform(-10, l.Side+10)))
			}
			ties, minima := 0, 0
			check := func() {
				t.Helper()
				for _, cur := range curs {
					if r.excluded[cur] {
						continue
					}
					for _, target := range targets {
						d2 := l.Pos(cur).Dist2(target)
						got, want := r.greedy(cur, target, d2), refGreedy(r, cur, target, d2)
						if got != want {
							t.Fatalf("greedy(%d, %v) = %d with %d excluded, reference %d",
								cur, target, got, r.NumExcluded(), want)
						}
						if want < 0 {
							minima++
							continue
						}
						for _, v := range l.Neighbors(cur) {
							if v != want && !r.excluded[v] && l.Pos(v).Dist2(target) == l.Pos(want).Dist2(target) {
								ties++
								break
							}
						}
					}
				}
			}
			check()
			var down []int
			for round := 0; round < 4; round++ {
				for i := 0; i < max(1, n/10); i++ {
					id := src.Intn(n)
					r.Exclude(id)
					down = append(down, id)
				}
				check()
				for _, id := range down[:len(down)/2] {
					r.Restore(id)
				}
				down = down[len(down)/2:]
				check()
			}
			for _, id := range down {
				r.Restore(id)
			}
			if r.NumExcluded() != 0 {
				t.Fatalf("%d nodes still excluded", r.NumExcluded())
			}
			check()
			if minima == 0 {
				t.Error("no local minimum checked")
			}
			if name == "lattice" && ties == 0 {
				t.Error("no equidistant best neighbour on the lattice")
			}
		})
	}
}

// greedyDecision is one greedy choice a memo miss makes: the node, the
// target and the node's own squared distance to it.
type greedyDecision struct {
	cur    int
	target geo.Point
	d2     float64
}

// BenchmarkGreedyNext is the work of a memo miss with no node excluded:
// the greedy choice at one node. The decisions are recorded off the hops
// of 4096 node-addressed routes between uniform pairs at N=900, about 32 k
// of them. ns/op and allocs/op are the branch-free kernel's; refGreedy is
// timed right after over the same decisions, and ref/kernel reports how
// many times faster the kernel ran. `make micro-bench` gates allocs/op at
// 0 and the speedup at greedyFloor.
func BenchmarkGreedyNext(b *testing.B) {
	l := genLayout(b, 900, 9)
	r, src := New(l), rng.New(10)
	var decisions []greedyDecision
	for i := 0; i < 4096; i++ {
		dst := src.Intn(l.N())
		res, err := r.RouteToNode(src.Intn(l.N()), dst)
		if err != nil {
			b.Fatal(err)
		}
		target := l.Pos(dst)
		for _, cur := range res.Path[:res.Hops()] {
			decisions = append(decisions, greedyDecision{cur, target, l.Pos(cur).Dist2(target)})
		}
	}
	sum := 0
	scan := func(n int, greedy func(cur int, target geo.Point, d2 float64) int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			d := &decisions[i%len(decisions)]
			sum += greedy(d.cur, d.target, d.d2)
		}
		return time.Since(start)
	}
	b.ReportAllocs()
	b.ResetTimer()
	kernel := scan(b.N, r.greedy)
	b.StopTimer()
	kernelSum := sum
	sum = 0
	ref := scan(b.N, func(cur int, target geo.Point, d2 float64) int { return refGreedy(r, cur, target, d2) })
	if sum != kernelSum {
		b.Fatalf("the kernel's choices sum to %d, the reference's to %d", kernelSum, sum)
	}
	speedup := float64(ref) / float64(kernel)
	b.ReportMetric(speedup, "ref/kernel")
	if b.N >= 10000 && speedup < greedyFloor {
		b.Fatalf("the greedy kernel is %.2f× the reference, below the %.1f× floor", speedup, greedyFloor)
	}
}

// greedyFloor is the least speedup over refGreedy BenchmarkGreedyNext
// accepts. Both scans run back to back in one run, so a slow host slows
// both and the ratio holds where ns/op would not.
const greedyFloor = 1.2
