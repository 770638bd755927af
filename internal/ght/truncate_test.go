package ght

import (
	"strings"
	"testing"

	"pooldcs/internal/dcs/dcstest"
)

// TestLostHomeReplyContributesNothing loses a home node's reply to the
// sink twice while the query reached the home: the matches, already
// gathered in the reply buffer, must be taken back out and the home
// listed as unreached.
func TestLostHomeReplyContributesNothing(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		s, net, router := newFaultUniverse(t, 300, 720)
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
					t.Errorf("want the holder's point unreached after one retry, got %+v", comp)
				}
				return
			}
		}
		t.Fatal("no event with a one-way reply relay in this deployment")
	})
}
