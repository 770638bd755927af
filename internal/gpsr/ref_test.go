package gpsr

import "fmt"

// refRouteToNode is the un-memoised reference for RouteToNode: the
// route loop as it stood before the memo existed — one full step per hop,
// the memo neither read nor written — behind RouteToNodeBuf's guards.
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
		next, deliver := r.step(cur, &pkt)
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
