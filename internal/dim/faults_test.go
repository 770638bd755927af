package dim

import (
	"fmt"
	"slices"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// newUniverse builds a DIM system exposing its network and router, so
// tests can fail nodes at every layer (the chaos engine's view).
func newUniverse(t testing.TB, n int, seed int64, opts ...Option) (*System, *network.Network, *gpsr.Router) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)
	s, err := New(net, router, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, router
}

func loadEvents(t testing.TB, s *System, n int, seed int64) []event.Event {
	t.Helper()
	src := rng.New(seed)
	var all []event.Event
	for i := 0; i < n; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		all = append(all, e)
		if err := s.Insert(src.Intn(s.net.Layout().N()), e); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

// crash kills a node at every layer, the way the chaos engine does, and
// holds the zones' store to the holding layer's check.
func crash(t testing.TB, s *System, net *network.Network, router *gpsr.Router, id int) {
	t.Helper()
	router.Exclude(id)
	net.FailNode(id)
	if err := s.FailNode(id); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckStore(); err != nil {
		t.Fatal(err)
	}
}

func pickAlive(s *System) int {
	for i := range s.dead {
		if !s.dead[i] {
			return i
		}
	}
	return -1
}

func fullDomain() event.Query {
	return event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
}

func TestFailNodeLosesOnlyItsEvents(t *testing.T) {
	s, net, router := newUniverse(t, 300, 700)
	all := loadEvents(t, s, 300, 701)

	// The most-loaded node loses exactly its own events; everything else
	// survives, the query completes without error, and exactly the
	// victim's zones that held events are reported unreached.
	victim, max := -1, 0
	for i, l := range s.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	var lost []string
	for i, z := range s.zones {
		if segs := s.Segments(i); z.Owner == victim && len(segs) > 0 && segs[0].Rows.Len() > 0 {
			lost = append(lost, fmt.Sprintf("zone %v", z.Code))
		}
	}
	if len(lost) == 0 {
		t.Fatal("the most-loaded node owns no zone holding events")
	}
	crash(t, s, net, router, victim)
	for i := range s.zones {
		if s.zones[i].Owner == victim {
			t.Fatalf("zone %v still owned by failed node", s.zones[i].Code)
		}
	}

	got, comp, err := s.QueryWithReport(pickAlive(s), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(comp.Unreached, lost) || comp.CellsReached != comp.CellsTotal-len(lost) {
		t.Errorf("unreached %v (%d/%d reached), want exactly the victim's loaded zones %v",
			comp.Unreached, comp.CellsReached, comp.CellsTotal, lost)
	}
	if want := len(all) - max; len(got) != want {
		t.Errorf("recall %d, want %d (all but the victim's %d events)", len(got), want, max)
	}
}

func TestInsertRoutesToRehomedZone(t *testing.T) {
	s, net, router := newUniverse(t, 300, 710)
	e := event.New(0.5, 0.5, 0.5)
	victim := s.ZoneOf(e.Values).Owner
	crash(t, s, net, router, victim)

	next := s.ZoneOf(e.Values).Owner
	if next == victim || s.dead[next] {
		t.Fatalf("zone not re-homed: owner %d", next)
	}
	if err := s.Insert(pickAlive(s), e); err != nil {
		t.Fatalf("insert after re-homing: %v", err)
	}
	if s.Stored(next) != 1 {
		t.Errorf("event not stored at new owner %d", next)
	}
	// The new owner answers for the zone it took over.
	q := event.NewQuery(event.PointRange(0.5), event.PointRange(0.5), event.PointRange(0.5))
	if got, comp, err := s.QueryWithReport(pickAlive(s), q); err != nil || len(got) != 1 || !comp.Complete() {
		t.Errorf("query after re-homing = %v, %+v, %v; want the event, complete", got, comp, err)
	}
}

func TestUndetectedFailureDegradesGracefully(t *testing.T) {
	for _, d := range []Dissemination{ChainDissemination, SplitDissemination} {
		t.Run(d.String(), func(t *testing.T) {
			s, net, router := newUniverse(t, 300, 720, WithDissemination(d))
			all := loadEvents(t, s, 300, 721)

			victim, max := -1, 0
			for i, l := range s.StorageLoad() {
				if l > max {
					victim, max = i, l
				}
			}
			// Radio and routing die, but the zone table still points at the
			// corpse: the query must skip its zones, not error.
			router.Exclude(victim)
			net.FailNode(victim)

			sink := pickAlive(s)
			for sink == victim {
				sink++
			}
			got, comp, err := s.QueryWithReport(sink, fullDomain())
			if err != nil {
				t.Fatalf("undetected failure must degrade, not error: %v", err)
			}
			if comp.Complete() {
				t.Error("completeness reported full with an unreachable owner")
			}
			if comp.Retries == 0 {
				t.Error("no retries spent on the unreachable zones")
			}
			if len(comp.Unreached) != comp.CellsTotal-comp.CellsReached {
				t.Errorf("unreached list %d entries, want %d", len(comp.Unreached), comp.CellsTotal-comp.CellsReached)
			}
			if len(got) >= len(all) || len(got) == 0 {
				t.Errorf("partial recall = %d of %d", len(got), len(all))
			}
		})
	}
}

func TestFailRecoverFail(t *testing.T) {
	s, net, router := newUniverse(t, 200, 730)
	loadEvents(t, s, 100, 731)

	victim := s.zones[0].Owner
	crash(t, s, net, router, victim)
	router.Restore(victim)
	net.RecoverNode(victim)
	s.RecoverNode(victim)
	if err := s.CheckStore(); err != nil {
		t.Fatal(err)
	}
	if s.Failed(victim) {
		t.Fatal("recovered node still failed")
	}
	if s.Stored(victim) != 0 {
		t.Fatal("rebooted node kept pre-failure storage")
	}
	crash(t, s, net, router, victim)
	if !s.Failed(victim) {
		t.Fatal("second failure not recorded")
	}
	if _, _, err := s.QueryWithReport(pickAlive(s), fullDomain()); err != nil {
		t.Fatal(err)
	}
}
