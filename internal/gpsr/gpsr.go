// Package gpsr implements Greedy Perimeter Stateless Routing (Karp & Kung,
// MobiCom 2000), the routing substrate the paper adopts for Pool, DIM, and
// GHT (§2).
//
// Packets address geographic locations. Greedy mode forwards to the radio
// neighbour closest to the target; at a local minimum the packet enters
// perimeter mode and traverses faces of the Gabriel-graph planarization
// with the right-hand rule, switching faces where they cross the line from
// the perimeter entry point to the target. When a perimeter tour returns to
// its first edge without finding a closer node, the face encloses the
// target and the node that started the tour is the target's home node —
// the delivery rule geographic hash systems (GHT, and hence Pool's cells
// and DIM's zones) rely on.
package gpsr

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
)

// Router precomputes the planar subgraph of a deployment and routes packets
// over it. Nodes can be excluded (crashed, depleted) with Exclude; routes
// then detour around them over the planarized alive subgraph.
//
// Concurrency: while the exclusion set is static any number of goroutines
// may route on one Router; Exclude and Restore need exclusive access, and
// so does the first route after them (it re-planarizes).
//
// Node-addressed routes (RouteToNode, RouteToNodeBuf) memoise greedy
// forwarding decisions. Nodes never move, so "the alive radio neighbour of
// cur closest to node dst" is a pure function of (cur, dst, exclusion set):
// a hit replays exactly the hop the scan would pick and every route is
// hop-for-hop the one an un-memoised Router returns. Local minima,
// perimeter mode and co-located positions always take the full step.
//
// HomeNode does not route at all: the home of a point is a property of the
// deployment and the exclusion set, so it is read off the layout's spatial
// index (see HomeNode).
type Router struct {
	layout *field.Layout
	planar [][]int

	// memo is built by the first node-addressed route and cleared in place
	// whenever the exclusion set changes (ensurePlanar).
	memoOnce sync.Once
	memo     *routeMemo

	// comp labels every alive node with its connected component of the
	// alive radio graph (excluded nodes: -1). Only HomeNode reads it, and only
	// while nodes are excluded: the first such call after an exclusion
	// change builds it and ensurePlanar drops it. Concurrent builders store
	// equal tables.
	comp atomic.Pointer[[]int32]
	// colocated marks a deployment in which two nodes share a position.
	// The Gabriel test cannot order a node against its own twin, so the
	// planar subgraph may be torn there and HomeNode leaves the answer to
	// the probe.
	colocated bool

	// excluded marks nodes routes must avoid; the planarization is
	// recomputed lazily over the alive subgraph when it changes.
	excluded  []bool
	nExcluded int
	dirty     bool
	// gen counts the exclusion flips since New (Generation).
	gen uint64

	// pending lists the nodes whose exclusion state flipped since the
	// last rebuild. A Gabriel witness for an edge (u,v) is always a radio
	// neighbour of both endpoints, so flipping one node only changes the
	// planar rows of that node and its radio neighbours; the lazy rebuild
	// refreshes just those rows. pendingFull forces a full rebuild when
	// the change set grew past the point where incremental wins.
	pending     []int
	pendingFull bool
	// touched/epoch deduplicate row refreshes within one rebuild.
	touched []int
	epoch   int
}

// New builds a Router for layout, planarizing the unit-disc graph into its
// Gabriel graph. For a connected unit-disc graph the Gabriel subgraph is
// connected, which perimeter mode requires.
func New(layout *field.Layout) *Router {
	r := &Router{layout: layout, excluded: make([]bool, layout.N())}
	r.planarize()
	for u, pu := range layout.Positions {
		for _, v := range layout.Neighbors(u) {
			r.colocated = r.colocated || pu.Equal(layout.Pos(v))
		}
	}
	return r
}

// Exclude removes a node from the routing fabric: greedy forwarding skips
// it and the planar subgraph is rebuilt (lazily) without it, so perimeter
// tours detour around the hole it leaves. Out-of-range ids are ignored.
func (r *Router) Exclude(id int) {
	if id >= 0 && id < len(r.excluded) && !r.excluded[id] {
		r.excluded[id] = true
		r.nExcluded++
		r.markChanged(id)
	}
}

// Restore returns an excluded node to the routing fabric.
func (r *Router) Restore(id int) {
	if id >= 0 && id < len(r.excluded) && r.excluded[id] {
		r.excluded[id] = false
		r.nExcluded--
		r.markChanged(id)
	}
}

// markChanged queues a node for the next lazy re-planarization and
// starts a new generation. Past N/8 queued changes the incremental path
// would refresh most rows anyway, so the rebuild falls back to a full
// pass.
func (r *Router) markChanged(id int) {
	r.dirty = true
	r.gen++
	if r.pendingFull {
		return
	}
	if len(r.pending) >= len(r.excluded)/8 {
		r.pendingFull = true
		r.pending = r.pending[:0]
		return
	}
	r.pending = append(r.pending, id)
}

// Generation counts the Exclude and Restore calls that flipped a node.
// Nothing else changes a node-addressed route, so RouteToNode(src, dst)
// returns the same path for as long as Generation returns the same value.
func (r *Router) Generation() uint64 { return r.gen }

// Excluded reports whether a node is currently excluded from routing;
// out-of-range ids are not.
func (r *Router) Excluded(id int) bool { return r.valid(id) && r.excluded[id] }

// valid reports whether id names a node of the deployment.
func (r *Router) valid(id int) bool { return id >= 0 && id < len(r.excluded) }

// NumExcluded returns the number of nodes currently excluded from
// routing — a cheap consistency probe for fault harnesses, which check
// it against the set of failures they injected.
func (r *Router) NumExcluded() int { return r.nExcluded }

// ErrUnreachable is returned when a route cannot be completed: the
// destination is excluded, or the perimeter tour proves that no alive
// path reaches it (the alive subgraph is partitioned).
var ErrUnreachable = errors.New("gpsr: destination unreachable")

// ensurePlanar rebuilds the planarization if the exclusion set changed.
// Small change sets refresh only the affected rows (the flipped nodes
// and their radio neighbours); large ones fall back to a full pass.
func (r *Router) ensurePlanar() {
	if !r.dirty {
		return
	}
	if r.pendingFull || len(r.pending) == 0 {
		r.planarize()
	} else {
		l := r.layout
		r.epoch++
		for _, id := range r.pending {
			r.refreshNode(id)
			for _, u := range l.Neighbors(id) {
				r.refreshNode(u)
			}
		}
	}
	r.memo.reset()
	r.comp.Store(nil)
	r.pending = r.pending[:0]
	r.pendingFull = false
	r.dirty = false
}

// refreshNode recomputes one planar row, at most once per rebuild epoch.
func (r *Router) refreshNode(u int) {
	if r.touched[u] == r.epoch {
		return
	}
	r.touched[u] = r.epoch
	r.planarizeNode(u)
}

// planarize computes the Gabriel graph of the alive subgraph. The first
// pass computes the rows back to back into one scratch array and carves
// them from one backing array of exactly their total length, each row's
// capacity its Gabriel degree; later passes refill the rows in place, so
// a rebuild allocates only when an exclusion opens more edges at a node
// than it had when first planarized.
func (r *Router) planarize() {
	l := r.layout
	if r.planar != nil {
		for u := range r.planar {
			r.planarizeNode(u)
		}
		return
	}
	r.planar = make([][]int, l.N())
	r.touched = make([]int, l.N())
	ends := make([]int, l.N())
	rows := make([]int, 0, 4*l.N())
	for u := range ends {
		if !r.excluded[u] {
			rows = r.appendGabriel(rows, u)
		}
		ends[u] = len(rows)
	}
	backing := append([]int(nil), rows...)
	from := 0
	for u, end := range ends {
		r.planar[u] = backing[from:end:end]
		from = end
	}
}

// planarizeNode recomputes the planar row of node u in place.
func (r *Router) planarizeNode(u int) {
	row := r.planar[u][:0]
	if !r.excluded[u] {
		row = r.appendGabriel(row, u)
	}
	r.planar[u] = row
}

// appendGabriel appends the planar row of the alive node u to row: the
// edge (u,v) survives iff no alive witness node lies strictly inside the
// disc with diameter uv. Any such witness is necessarily a radio neighbour
// of both endpoints (its distance to each is at most |uv| ≤ radio range),
// so scanning u's neighbour list suffices — exactly the local rule real
// GPSR nodes apply, with dead neighbours evicted by the beacon protocol.
//
// The neighbours' positions are copied once into a local array in which
// an excluded neighbour sits at +Inf, where no disc contains it, and v
// itself is parked there while its own edge is tested; the witness scan
// is then one distance test per slot.
func (r *Router) appendGabriel(row []int, u int) []int {
	l := r.layout
	nbrs := l.Neighbors(u)
	var arr [64]geo.Point
	pts := arr[:0]
	if len(nbrs) > len(arr) {
		pts = make([]geo.Point, 0, len(nbrs))
	}
	far := geo.Pt(math.Inf(1), math.Inf(1))
	for _, w := range nbrs {
		if r.excluded[w] {
			pts = append(pts, far)
		} else {
			pts = append(pts, l.Positions[w])
		}
	}
	pu := l.Positions[u]
	for i, v := range nbrs {
		pv := pts[i]
		if r.excluded[v] {
			continue
		}
		mid := pu.Mid(pv)
		rad2 := pu.Dist2(pv) / 4
		pts[i] = far
		keep := true
		for _, pw := range pts {
			if pw.Dist2(mid) < rad2 {
				keep = false
				break
			}
		}
		pts[i] = pv
		if keep {
			row = append(row, v)
		}
	}
	return row
}

// Layout returns the deployment the router serves.
func (r *Router) Layout() *field.Layout { return r.layout }

// PlanarNeighbors returns the Gabriel-graph neighbours of id among the
// non-excluded nodes (a subset of its radio neighbours). The slice is
// owned by the router.
func (r *Router) PlanarNeighbors(id int) []int {
	r.ensurePlanar()
	return r.planar[id]
}

// Result describes a completed route.
type Result struct {
	// Path lists the nodes visited, starting with the source and ending
	// with the home node. len(Path)-1 is the hop count.
	Path []int
	// Home is the delivering node.
	Home int
	// GreedyHops and PerimeterHops split the hop count by mode.
	GreedyHops    int
	PerimeterHops int
}

// Hops returns the number of radio transmissions along the route.
func (res Result) Hops() int { return len(res.Path) - 1 }

// ErrTTLExceeded is returned when a route exceeds its hop budget, which
// indicates a planarization failure (should not happen on Gabriel graphs).
var ErrTTLExceeded = errors.New("gpsr: TTL exceeded")

type mode int

const (
	modeGreedy mode = iota
	modePerimeter
)

// packet is the per-packet routing state GPSR carries in its header.
type packet struct {
	target geo.Point
	mode   mode
	// lp is the location where the packet entered perimeter mode.
	lp geo.Point
	// lf is the point on the segment lp→target where the packet entered
	// the current face.
	lf geo.Point
	// e0 is the first edge traversed on the current face; re-encountering
	// it means the tour is complete.
	e0 [2]int
	// prev is the node the packet arrived from (-1 at origin).
	prev int
}

// Route forwards a packet from node src toward the geographic target and
// returns the route taken. The packet is delivered at the target's home
// node: the first node whose perimeter tour around the target finds no
// node closer. Route is deterministic.
func (r *Router) Route(src int, target geo.Point) (Result, error) {
	return r.route(src, target, -1, nil)
}

// route implements Route. When consumeAt is non-negative, the packet is
// addressed to that specific node and is consumed on arrival there instead
// of probing the perimeter around its location. buf, when non-nil, backs
// the result path.
func (r *Router) route(src int, target geo.Point, consumeAt int, buf []int) (Result, error) {
	l := r.layout
	r.ensurePlanar()
	if err := r.sourceErr(src); err != nil {
		return Result{Path: append(buf[:0], src)}, err
	}
	var memo *routeMemo
	if consumeAt >= 0 {
		r.memoOnce.Do(func() { r.memo = newRouteMemo(l.N()) })
		memo = r.memo
	}
	pkt := packet{target: target, mode: modeGreedy, prev: -1}
	cur := src
	res := Result{Path: append(buf[:0], src)}
	ttl := 10*l.N() + 100

	for hop := 0; ; hop++ {
		if hop > ttl {
			return res, fmt.Errorf("%w: %d hops from %d to %v", ErrTTLExceeded, hop, src, target)
		}
		if cur == consumeAt {
			res.Home = cur
			return res, nil
		}
		next, hit := 0, false
		if memo != nil && pkt.mode == modeGreedy {
			next, hit = memo.get(cur, consumeAt)
		}
		if !hit {
			var deliver bool
			next, deliver = r.step(cur, &pkt)
			if deliver {
				res.Home = cur
				return res, nil
			}
			// Still (or again) greedy after the step: next is the pure
			// greedy choice at cur, whatever mode the packet arrived in.
			if memo != nil && pkt.mode == modeGreedy {
				memo.put(cur, consumeAt, next)
			}
		}
		if pkt.mode == modeGreedy {
			res.GreedyHops++
		} else {
			res.PerimeterHops++
		}
		pkt.prev = cur
		cur = next
		res.Path = append(res.Path, cur)
	}
}

// sourceErr reports why no packet can start at src: it is not a node of the
// deployment, or it is excluded.
func (r *Router) sourceErr(src int) error {
	if !r.valid(src) {
		return fmt.Errorf("gpsr: source %d out of range: %w", src, ErrUnreachable)
	}
	if r.excluded[src] {
		return fmt.Errorf("gpsr: source %d is down: %w", src, ErrUnreachable)
	}
	return nil
}

// step computes the forwarding decision at node cur, mutating the packet
// header exactly as a real GPSR node would. It returns the next hop, or
// deliver=true when cur consumes the packet.
func (r *Router) step(cur int, pkt *packet) (next int, deliver bool) {
	d2 := r.layout.Pos(cur).Dist2(pkt.target)
	if d2 == 0 {
		// Exact arrival: no perimeter probe is needed to prove that no
		// node is closer.
		return 0, true
	}
	if pkt.mode == modePerimeter && d2 < pkt.lp.Dist2(pkt.target) {
		// Revert to greedy as soon as we are closer than the point where
		// perimeter mode began.
		pkt.mode = modeGreedy
	}
	if pkt.mode == modeGreedy {
		if best := r.greedy(cur, pkt.target, d2); best >= 0 {
			return best, false
		}
	}
	return r.perimeter(cur, pkt)
}

// greedy returns the alive radio neighbour of cur closest to target among
// those strictly closer than d2, cur's own squared distance; the first in
// cur's row on ties, or -1 at a local minimum. Branch-free: non-negative
// floats order like their IEEE bit patterns, which stay below 2⁶³, so the
// sign of their difference selects on the strict <. An excluded
// neighbour's pattern is raised to 2⁶³−1, never closer.
func (r *Router) greedy(cur int, target geo.Point, d2 float64) int {
	pos, ex, best, bb := r.layout.Positions, r.excluded, -1, math.Float64bits(d2)
	if r.nExcluded > 0 {
		for _, v := range r.layout.Neighbors(cur) {
			vb := math.Float64bits(pos[v].Dist2(target))
			if ex[v] {
				vb = math.MaxInt64
			}
			m := int64(vb-bb) >> 63
			best ^= (best ^ v) & int(m)
			bb ^= (bb ^ vb) & uint64(m)
		}
		return best
	}
	for _, v := range r.layout.Neighbors(cur) {
		vb := math.Float64bits(pos[v].Dist2(target))
		m := int64(vb-bb) >> 63
		best ^= (best ^ v) & int(m)
		bb ^= (bb ^ vb) & uint64(m)
	}
	return best
}

// perimeter is step at a local minimum (the packet still greedy) or in
// perimeter mode.
func (r *Router) perimeter(cur int, pkt *packet) (next int, deliver bool) {
	l := r.layout
	here := l.Pos(cur)
	if pkt.mode == modeGreedy {
		// Local minimum. A node with no planar neighbours is trivially the
		// home node.
		if len(r.planar[cur]) == 0 {
			return 0, true
		}
		// Enter perimeter mode: tour the face intersected by the segment
		// cur→target, starting with the first edge counterclockwise from
		// that segment.
		pkt.mode = modePerimeter
		pkt.lp = here
		pkt.lf = here
		a := r.rightHand(cur, here.Angle(pkt.target), -1)
		a = r.faceChange(cur, a, pkt)
		pkt.e0 = [2]int{cur, a}
		return a, false
	}

	// Perimeter forwarding: right-hand rule from the ingress edge.
	a := r.rightHand(cur, here.Angle(l.Pos(pkt.prev)), pkt.prev)
	a = r.faceChange(cur, a, pkt)
	if cur == pkt.e0[0] && a == pkt.e0[1] {
		// The tour is about to repeat its first edge: the current face
		// encloses the target and no node on it is closer than lp, so cur
		// (the node that started the tour) is the home node.
		return 0, true
	}
	return a, false
}

// rightHand returns the planar neighbour of cur whose edge is the first
// one counterclockwise from the reference direction refAngle. prev, when
// non-negative, is the ingress neighbour: it is only chosen as a last
// resort (a full 2π turn), which makes dead-end u-turns work.
func (r *Router) rightHand(cur int, refAngle float64, prev int) int {
	l := r.layout
	here := l.Pos(cur)
	best, bestDelta := -1, math.Inf(1)
	for _, v := range r.planar[cur] {
		delta := normAngle(here.Angle(l.Pos(v)) - refAngle)
		if v == prev || delta == 0 {
			// Ingress edge (delta 0 relative to itself) sorts last.
			delta = 2 * math.Pi
		}
		if delta < bestDelta {
			best, bestDelta = v, delta
		}
	}
	return best
}

// faceChange applies GPSR's face-change rule: while the candidate edge
// cur→a crosses the segment lp→target at a point strictly closer to the
// target than lf, the packet moves to the adjacent face — lf advances to
// the crossing and the right-hand rule restarts from the rejected edge.
func (r *Router) faceChange(cur, a int, pkt *packet) int {
	l := r.layout
	here := l.Pos(cur)
	lpLine := geo.Seg(pkt.lp, pkt.target)
	for range len(r.planar[cur]) {
		e := geo.Seg(here, l.Pos(a))
		if !e.ProperlyIntersects(lpLine) {
			break
		}
		i, ok := e.IntersectionPoint(lpLine)
		if !ok || i.Dist2(pkt.target) >= pkt.lf.Dist2(pkt.target) {
			break
		}
		pkt.lf = i
		next := r.rightHand(cur, here.Angle(l.Pos(a)), a)
		if next == a {
			break
		}
		a = next
		pkt.e0 = [2]int{cur, a}
	}
	return a
}

// normAngle maps an angle difference into [0, 2π).
func normAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// RouteToNode routes from src to node dst, addressing dst's own location.
// The packet is consumed on arrival at dst without a perimeter probe.
func (r *Router) RouteToNode(src, dst int) (Result, error) {
	return r.RouteToNodeBuf(src, dst, nil)
}

// RouteToNodeBuf is RouteToNode with a caller-provided path buffer: the
// returned Result.Path reuses buf's backing array, so steady-state routing
// allocates only when the path outgrows the buffer. The caller owns the
// buffer and must not issue another buffered route while the result's
// path is still in use.
func (r *Router) RouteToNodeBuf(src, dst int, buf []int) (Result, error) {
	if !r.valid(dst) {
		return Result{Path: append(buf[:0], src)}, fmt.Errorf("gpsr: node %d out of range: %w", dst, ErrUnreachable)
	}
	if r.excluded[dst] {
		return Result{Path: append(buf[:0], src)}, fmt.Errorf("gpsr: node %d is down: %w", dst, ErrUnreachable)
	}
	res, err := r.route(src, r.layout.Pos(dst), dst, buf)
	if err != nil {
		return res, err
	}
	if res.Home != dst {
		// The perimeter tour completed without reaching dst: either a node
		// co-located with dst's position absorbed the packet (duplicate
		// coordinates), or exclusions partitioned the alive subgraph and
		// the tour enclosed the target on the wrong side of the cut.
		return res, fmt.Errorf("gpsr: route to node %d delivered at %d: %w", dst, res.Home, ErrUnreachable)
	}
	return res, nil
}

// HomeNode returns the node that consumes packets addressed to target when
// routed from src — Route(src, target).Home — without routing: it is the
// alive node nearest to target within src's connected component, looked up
// in the layout's bucket grid.
//
// The two agree because the planar subgraph is a Gabriel graph. Let v be
// that nearest node. An edge (a, b) crossing the segment v→target would
// have v strictly inside the disc with diameter ab (a and b are no closer
// to target than v, so v sees the chord under more than a right angle) and
// so would not be a Gabriel edge; hence v lies on the face that encloses
// target. A perimeter tour of that face reverts to greedy at any node
// closer than its entry point, so it can only complete, and deliver, at v.
// When two nodes are exactly equidistant the probe's answer depends on the
// side it arrives from, and the probe itself decides; so it does in a
// deployment with co-located nodes, whose planar subgraph the argument
// cannot rely on.
func (r *Router) HomeNode(src int, target geo.Point) (int, error) {
	r.ensurePlanar()
	if err := r.sourceErr(src); err != nil {
		return -1, err
	}
	if !r.colocated {
		var sameComponent func(id int) bool
		if r.nExcluded > 0 {
			comp := r.components()
			own := comp[src]
			sameComponent = func(id int) bool { return comp[id] == own }
		}
		if home, tied := r.layout.NearestFunc(target, sameComponent); !tied {
			return home, nil
		}
	}
	res, err := r.Route(src, target)
	if err != nil {
		return -1, err
	}
	return res.Home, nil
}

// components returns the component labels, building them on first use
// after an exclusion change.
func (r *Router) components() []int32 {
	if p := r.comp.Load(); p != nil {
		return *p
	}
	l := r.layout
	comp := make([]int32, l.N())
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	next := int32(0)
	for root := range comp {
		if comp[root] >= 0 || r.excluded[root] {
			continue
		}
		comp[root] = next
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range l.Neighbors(u) {
				if comp[v] < 0 && !r.excluded[v] {
					comp[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	r.comp.Store(&comp)
	return comp
}
