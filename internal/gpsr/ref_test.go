package gpsr

import (
	"fmt"

	"pooldcs/internal/geo"
)

// refRouteToNode is the un-memoised reference for RouteToNode: the
// route loop as it stood before the memo existed — one full step per hop,
// the memo neither read nor written, the greedy choice made by refGreedy —
// behind RouteToNodeBuf's guards.
func refRouteToNode(r *Router, src, dst int) (Result, error) {
	if !r.valid(dst) {
		return Result{Path: []int{src}}, fmt.Errorf("gpsr: node %d out of range: %w", dst, ErrUnreachable)
	}
	if r.excluded[dst] {
		return Result{Path: []int{src}}, fmt.Errorf("gpsr: node %d is down: %w", dst, ErrUnreachable)
	}
	r.ensurePlanar()
	if !r.valid(src) {
		return Result{Path: []int{src}}, fmt.Errorf("gpsr: source %d out of range: %w", src, ErrUnreachable)
	}
	if r.excluded[src] {
		return Result{Path: []int{src}}, fmt.Errorf("gpsr: source %d is down: %w", src, ErrUnreachable)
	}
	target := r.layout.Pos(dst)
	pkt := packet{target: target, mode: modeGreedy, prev: -1}
	cur := src
	res := Result{Path: []int{src}}
	ttl := 10*r.layout.N() + 100
	for hop := 0; ; hop++ {
		if hop > ttl {
			return res, fmt.Errorf("%w: %d hops from %d to %v", ErrTTLExceeded, hop, src, target)
		}
		if cur == dst {
			res.Home = cur
			return res, nil
		}
		next, deliver := refStep(r, cur, &pkt)
		if deliver {
			res.Home = cur
			return res, fmt.Errorf("gpsr: route to node %d delivered at %d: %w", dst, res.Home, ErrUnreachable)
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

// refStep is Router.step with the greedy choice made by refGreedy; a local
// minimum and perimeter mode go to Router.perimeter as in step.
func refStep(r *Router, cur int, pkt *packet) (next int, deliver bool) {
	d2 := r.layout.Pos(cur).Dist2(pkt.target)
	if d2 == 0 {
		return 0, true
	}
	if pkt.mode == modePerimeter && d2 < pkt.lp.Dist2(pkt.target) {
		pkt.mode = modeGreedy
	}
	if pkt.mode == modeGreedy {
		if best := refGreedy(r, cur, pkt.target, d2); best >= 0 {
			return best, false
		}
	}
	return r.perimeter(cur, pkt)
}

// refGreedy is the reference for Router.greedy: the scalar scan step ran
// before the branch-free kernel, one compare and branch per neighbour.
func refGreedy(r *Router, cur int, target geo.Point, d2 float64) int {
	l := r.layout
	best, bestD2 := -1, d2
	for _, v := range l.Neighbors(cur) {
		if r.excluded[v] {
			continue
		}
		if vd2 := l.Pos(v).Dist2(target); vd2 < bestD2 {
			best, bestD2 = v, vd2
		}
	}
	return best
}
