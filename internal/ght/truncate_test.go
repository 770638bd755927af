package ght

import (
	"strings"
	"testing"

	"pooldcs/internal/dcs/dcstest"
)

// TestLostHomeReplyContributesNothing loses a home node's reply to the
// sink twice while the query reached the home: the matches, already
// gathered in the reply buffer, must be taken back out and the mirror
// listed as unreached — without and with structured replication (whose
// dedup pass compacts the same buffer).
func TestLostHomeReplyContributesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"replicated", []Option{WithStructuredReplication(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net, router := newFaultUniverse(t, 300, 720, tc.opts...)
			for _, e := range loadGHT(t, s, 300, 721) {
				q := pointQueryFor(e)
				holder := -1
				for n := range s.storage {
					if len(q.Filter(s.storage[n].AppendTo(nil))) > 0 {
						holder = n
					}
				}
				for sink := 0; sink < net.Layout().N(); sink++ {
					if sink == holder {
						continue
					}
					relay := dcstest.OneWayRelay(t, router, holder, sink)
					if relay < 0 {
						continue
					}
					got, comp, err := s.QueryWithReport(sink, q)
					if err != nil || len(got) != 1 || !comp.Complete() {
						t.Fatalf("fault-free query from %d: %v, %+v, %v", sink, got, comp, err)
					}
					// The relay must carry the holder's reply only: no leg
					// of the query's walk over the mirrors may cross it.
					// (The fault-free query cached every mirror's home.)
					cur, clean := sink, true
					for _, pt := range s.MirrorPoints(s.HashPoint(e.Values)) {
						home := int(s.homes[pt].node)
						if home != cur {
							leg, err := router.RouteToNode(cur, home)
							if err != nil {
								t.Fatal(err)
							}
							for _, v := range leg.Path {
								clean = clean && v != relay
							}
						}
						cur = home
					}
					if !clean {
						continue
					}

					defer dcstest.Jam(net, relay)()
					got, comp, err = s.QueryWithReport(sink, q)
					if err != nil {
						t.Fatal(err)
					}
					if got != nil {
						t.Errorf("%v returned although home %d's reply never reached sink %d", got, holder, sink)
					}
					if len(comp.Unreached) != 1 || !strings.HasPrefix(comp.Unreached[0], "M") ||
						comp.CellsReached != comp.CellsTotal-1 || comp.Retries != 1 {
						t.Errorf("want the holder's mirror unreached after one retry, got %+v", comp)
					}
					return
				}
			}
			t.Fatal("no event with a one-way reply relay in this deployment")
		})
	}
}
