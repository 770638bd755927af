// Package dcstest holds fault-injection helpers shared by the in-package
// tests of the storage schemes (pool, dim, ght), which cannot import one
// another's test files.
package dcstest

import (
	"slices"
	"testing"

	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// BurstAt opens a loss burst over one node's position only: frames it
// sends or receives are dropped at the given rate, every other link is
// untouched.
func BurstAt(net *network.Network, id int, rate float64, seed int64) (cancel func()) {
	p := net.Layout().Pos(id)
	const eps = 1e-6
	return net.AddRegionLoss(geo.RectFromCorners(geo.Pt(p.X-eps, p.Y-eps), geo.Pt(p.X+eps, p.Y+eps)), rate, rng.New(seed))
}

// Jam silences one relay: a route through it exhausts its ARQ budget on
// every attempt, while the router — which only knows about detected
// failures — keeps choosing it.
func Jam(net *network.Network, id int) (cancel func()) { return BurstAt(net, id, 1.0, 1) }

// Route returns the routed path from→to.
func Route(t testing.TB, router *gpsr.Router, from, to int) []int {
	t.Helper()
	res, err := router.RouteToNode(from, to)
	if err != nil {
		t.Fatalf("route %d→%d: %v", from, to, err)
	}
	return res.Path
}

// OneWayRelay returns a relay of the routed path from→to that the path
// back does not use, or -1: jamming it loses from's messages to to while
// to's messages to from still arrive. Greedy forwarding is not symmetric,
// so such relays are common on multi-hop paths.
func OneWayRelay(t testing.TB, router *gpsr.Router, from, to int) int {
	t.Helper()
	there, back := Route(t, router, from, to), Route(t, router, to, from)
	for _, v := range there[1 : len(there)-1] {
		if !slices.Contains(back, v) {
			return v
		}
	}
	return -1
}
