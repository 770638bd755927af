package dim

import (
	"testing"

	"pooldcs/internal/dcs/dcstest"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// TestLegsMatchRoutedLegs runs one script on two DIM systems over twin
// deployments, each dissemination: one forwards owner to owner from its
// leg table, the other routes every leg, as DIM did before the table.
// The script warms the table, crashes a relay of the owner chain
// silently (replayed legs through it die at the radio), then detects the
// crash of a zone owner, whose zones move to new owners, and recovers
// both nodes. After every step each answer, its Completeness and every
// radio counter must agree.
func TestLegsMatchRoutedLegs(t *testing.T) {
	for _, d := range []Dissemination{ChainDissemination, SplitDissemination} {
		t.Run(d.String(), func(t *testing.T) {
			type universe struct {
				s      *System
				net    *network.Network
				router *gpsr.Router
			}
			build := func(routed bool) universe {
				s, net, router := newUniverse(t, 300, 700, WithDissemination(d))
				if routed {
					s.legs.Legs = nil
				}
				loadEvents(t, s, 600, 701)
				return universe{s, net, router}
			}
			twins := [2]universe{build(false), build(true)}
			src := rng.New(702)
			type placed struct {
				sink int
				q    event.Query
			}
			var queries []placed
			for i := 0; i < 60; i++ {
				lo, lo2 := src.Float64()*0.7, src.Float64()*0.5
				queries = append(queries, placed{sink: src.Intn(300),
					q: event.NewQuery(event.Span(lo, lo+0.3), event.Span(lo2, lo2+0.5), event.Unspecified())})
			}
			run := func(step string) {
				t.Helper()
				for _, pq := range queries {
					var answers [2]string
					for i, u := range twins {
						got, comp, err := u.s.QueryWithReport(pq.sink, pq.q)
						answers[i] = dcstest.Outcome(got, comp, err)
					}
					if answers[0] != answers[1] {
						t.Fatalf("%s: query from %d answers %s, routed %s", step, pq.sink, answers[0], answers[1])
					}
				}
				dcstest.SameRadio(t, step, twins[0].net, twins[1].net)
			}
			run("cold")
			run("warm")
			s := twins[0].s
			point := []float64{0.4, 0.5, 0.5}
			owner := s.ZoneOf(point).Owner
			relay := -1
			for _, z := range s.zones {
				if z.Owner != owner {
					if res, err := twins[0].router.RouteToNode(owner, z.Owner); err == nil && res.Hops() > 1 {
						relay = res.Path[1]
						break
					}
				}
			}
			if relay < 0 || relay == owner {
				t.Fatal("no relay off the owner")
			}
			for _, u := range twins {
				u.net.FailNode(relay)
			}
			run("silent relay crash")
			for _, u := range twins {
				u.router.Exclude(owner)
				u.net.FailNode(owner)
				if err := u.s.FailNode(owner); err != nil {
					t.Fatal(err)
				}
			}
			if s.ZoneOf(point).Owner == owner {
				t.Fatal("the failed owner kept its zone")
			}
			run("owner failed")
			for _, u := range twins {
				for _, id := range []int{relay, owner} {
					u.router.Restore(id)
					u.net.RecoverNode(id)
					u.s.RecoverNode(id)
				}
			}
			run("recovered")
		})
	}
}
