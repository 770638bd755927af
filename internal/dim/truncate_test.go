package dim

import (
	"fmt"
	"testing"

	"pooldcs/internal/dcs/dcstest"
	"pooldcs/internal/event"
)

// TestLostOwnerReplyContributesNothing loses an owner's reply to the sink
// twice while the query reached the owner: the owner's matches, already
// gathered in the reply buffer, must be taken back out and its zone
// listed as unreached.
func TestLostOwnerReplyContributesNothing(t *testing.T) {
	s, net, router := newUniverse(t, 300, 710)
	all := loadEvents(t, s, 300, 711)

	// A point query addressing a single zone, and a sink whose reply path
	// from the zone's owner crosses a relay the query path does not use.
	var target event.Event
	var q event.Query
	sink, relay := -1, -1
search:
	for _, e := range all {
		cand := event.NewQuery(event.PointRange(e.Values[0]), event.PointRange(e.Values[1]), event.PointRange(e.Values[2]))
		if len(s.RelevantZones(cand)) != 1 {
			continue
		}
		owner := s.ZoneOf(e.Values).Owner
		for n := 0; n < net.Layout().N(); n++ {
			if n == owner {
				continue
			}
			if r := dcstest.OneWayRelay(t, router, owner, n); r >= 0 {
				target, q, sink, relay = e, cand, n, r
				break search
			}
		}
	}
	if relay < 0 {
		t.Fatal("no single-zone point query with a one-way reply relay in this deployment")
	}
	label := fmt.Sprintf("zone %v", s.ZoneOf(target.Values).Code)

	got, comp, err := s.QueryWithReport(sink, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != target.Seq || !comp.Complete() {
		t.Fatalf("fault-free query: %v, %+v", got, comp)
	}

	defer dcstest.Jam(net, relay)()
	got, comp, err = s.QueryWithReport(sink, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("%v returned although the owner's reply never reached the sink", got)
	}
	if len(comp.Unreached) != 1 || comp.Unreached[0] != label || comp.CellsReached != 0 {
		t.Errorf("want %s unreached and nothing reached, got %+v", label, comp)
	}
	if comp.Retries == 0 {
		t.Error("the lost reply was not retried")
	}
}
