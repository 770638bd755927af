// Package dcstest holds fault-injection helpers shared by the in-package
// tests of the storage schemes (pool, dim, ght), which cannot import one
// another's test files.
package dcstest

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pooldcs/internal/event"
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

// Outcome renders what an operation returned — the sequence numbers of
// its events, then the rest (a Completeness, an error) — for comparing
// two runs of one script.
func Outcome(got []event.Event, rest ...any) string {
	seqs := make([]uint64, len(got))
	for i, e := range got {
		seqs[i] = e.Seq
	}
	return fmt.Sprint(seqs, rest)
}

// SameRadio fails t unless radios a and b counted the same traffic: the
// totals, and per node the frames sent, heard and dropped and the energy.
func SameRadio(t testing.TB, step string, a, b *network.Network) {
	t.Helper()
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) || !reflect.DeepEqual(a.NodeEnergies(), b.NodeEnergies()) {
		t.Fatalf("%s: radio counters %+v, against %+v", step, a.Snapshot(), b.Snapshot())
	}
	for id := range a.NodeEnergies() {
		txa, rxa := a.NodeLoad(id)
		txb, rxb := b.NodeLoad(id)
		if txa != txb || rxa != rxb || a.NodeDrops(id) != b.NodeDrops(id) {
			t.Fatalf("%s: node %d sent/heard/dropped %d/%d/%d, against %d/%d/%d",
				step, id, txa, rxa, a.NodeDrops(id), txb, rxb, b.NodeDrops(id))
		}
	}
}
