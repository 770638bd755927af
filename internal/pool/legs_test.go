package pool

import (
	"testing"

	"pooldcs/internal/dcs/dcstest"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// TestLegsMatchRoutedLegs runs one script on two replicated Pools over
// twin deployments: one walks its splitter↔cell legs from its leg table,
// the other routes every leg, as Pool did before the table. The script
// warms the table, then crashes an index node silently, so a replayed
// leg dies at the radio and the retry goes to a new destination, the
// cell's mirror (Directory.Retarget); then detects the crash and
// repairs, and recovers the node. Before that a relay of a warm leg is
// excluded and restored. After every step each answer, its
// Completeness and every radio counter must agree.
func TestLegsMatchRoutedLegs(t *testing.T) {
	type universe struct {
		s      *System
		net    *network.Network
		router *gpsr.Router
	}
	var all []event.Event
	build := func(routed bool) universe {
		s, net, router := newUniverse(t, 300, 95, WithReplication())
		if routed {
			s.legs.Legs = nil
		}
		all = loadEvents(t, s, 300, 96)
		return universe{s, net, router}
	}
	twins := [2]universe{build(false), build(true)}
	src := rng.New(97)
	type placed struct {
		sink int
		q    event.Query
	}
	var queries []placed
	for i := 0; i < 60; i++ {
		lo := src.Float64() * 0.6
		q := event.NewQuery(event.Span(lo, lo+0.4), event.Unspecified(), event.Span(0, 1))
		if i%2 == 0 {
			q = pointQuery(all[src.Intn(len(all))])
		}
		queries = append(queries, placed{sink: src.Intn(300), q: q})
	}
	retries := 0
	run := func(step string) {
		t.Helper()
		for _, pq := range queries {
			var answers [2]string
			for i, u := range twins {
				got, comp, err := u.s.QueryWithReport(pq.sink, pq.q)
				answers[i] = dcstest.Outcome(got, comp, err)
				retries += comp.Retries * (1 - i)
			}
			if answers[0] != answers[1] {
				t.Fatalf("%s: query from %d answers %s, routed %s", step, pq.sink, answers[0], answers[1])
			}
		}
		dcstest.SameRadio(t, step, twins[0].net, twins[1].net)
	}
	run("cold")
	run("warm")
	// A relay of a warm splitter→cell leg is excluded and crashed without
	// Pool being told: the leg must be routed around it, not replayed.
	relay := -1
	s := twins[0].s
	var plan Plan
	for _, pq := range queries {
		if err := s.Resolve(pq.q, &plan); err != nil {
			t.Fatal(err)
		}
		for _, f := range plan.Fanouts {
			splitter := s.SplitterFor(f.Pool, pq.sink)
			for _, c := range f.Cells {
				if res, err := twins[0].router.RouteToNode(splitter, s.IndexNode(c)); err == nil && res.Hops() > 1 && relay < 0 {
					relay = res.Path[1]
				}
			}
		}
	}
	if relay < 0 {
		t.Fatal("no splitter→cell leg with a relay")
	}
	for _, u := range twins {
		u.router.Exclude(relay)
		u.net.FailNode(relay)
	}
	run("relay excluded")
	for _, u := range twins {
		u.router.Restore(relay)
		u.net.RecoverNode(relay)
	}
	run("relay restored")
	_, victim, err := s.Place(0, all[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range twins {
		u.net.FailNode(victim)
	}
	run("silent crash")
	if retries == 0 {
		t.Fatal("vacuous: no exchange was retried")
	}
	for _, u := range twins {
		u.router.Exclude(victim)
		if err := u.s.FailNode(victim); err != nil {
			t.Fatal(err)
		}
	}
	run("repaired")
	for _, u := range twins {
		u.router.Restore(victim)
		u.net.RecoverNode(victim)
		u.s.RecoverNode(victim)
	}
	run("recovered")
}
