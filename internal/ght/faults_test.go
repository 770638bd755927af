package ght

import (
	"slices"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// newFaultUniverse builds a GHT exposing the router too, so tests can
// fail nodes at every layer (the chaos engine's view).
func newFaultUniverse(t testing.TB, n int, seed int64, opts ...Option) (*System, *network.Network, *gpsr.Router) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)
	return New(net, router, opts...), net, router
}

// loadGHT inserts n random events from random origins and returns them.
func loadGHT(t testing.TB, s *System, n int, seed int64) []event.Event {
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

// pointQueryFor builds the exact-match query addressing one event's key.
func pointQueryFor(e event.Event) event.Query {
	rs := make([]event.Range, len(e.Values))
	for i, v := range e.Values {
		rs[i] = event.PointRange(v)
	}
	return event.NewQuery(rs...)
}

// crashGHT kills a node the way the chaos engine does after detection:
// routing first, then the radio, then the storage protocol's repair.
func crashGHT(t testing.TB, s *System, net *network.Network, router *gpsr.Router, id int) {
	t.Helper()
	router.Exclude(id)
	net.FailNode(id)
	if err := s.FailNode(id); err != nil {
		t.Fatal(err)
	}
}

func pickAliveGHT(s *System) int {
	for i := range s.dead {
		if !s.dead[i] {
			return i
		}
	}
	return -1
}

func mostLoaded(s *System) int {
	victim, max := -1, 0
	for i, l := range s.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	return victim
}

func TestFailNodeRehashesHomes(t *testing.T) {
	s, net, router := newFaultUniverse(t, 300, 700)
	loadGHT(t, s, 300, 701)

	victim := mostLoaded(s)
	if victim < 0 {
		t.Fatal("no node holds events")
	}
	crashGHT(t, s, net, router, victim)

	if !s.Failed(victim) {
		t.Error("victim not marked failed")
	}
	if s.storage[victim].Len() != 0 {
		t.Error("dead node kept its storage")
	}
	for pt, h := range s.homes {
		if home := int(h.node); home == victim {
			t.Errorf("cached home for %v still points at the corpse", pt)
		} else if s.dead[home] {
			t.Errorf("cached home for %v points at dead node %d", pt, home)
		}
	}

	// An insert whose key hashed to the victim now lands at the re-hashed
	// home and is immediately queryable.
	e := event.New(0.11, 0.22, 0.33)
	e.Seq = 9999
	origin := pickAliveGHT(s)
	if err := s.Insert(origin, e); err != nil {
		t.Fatalf("insert after repair: %v", err)
	}
	got, comp, err := s.QueryWithReport(origin, pointQueryFor(e))
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Complete() || len(got) != 1 || got[0].Seq != e.Seq {
		t.Errorf("post-repair insert not queryable: recall %d/1, completeness %d/%d",
			len(got), comp.CellsReached, comp.CellsTotal)
	}
}

// checkPointQuery holds one point query of e to the degradation contract
// after detected crashes: complete exactly when it returns e.
func checkPointQuery(t *testing.T, s *System, sink int, e event.Event) bool {
	t.Helper()
	got, comp, err := s.QueryWithReport(sink, pointQueryFor(e))
	if err != nil {
		t.Fatal(err)
	}
	found := slices.ContainsFunc(got, func(g event.Event) bool { return g.Seq == e.Seq })
	if comp.Complete() != found {
		t.Errorf("event %d: complete %v (%d/%d) but returned %v", e.Seq, comp.Complete(), comp.CellsReached, comp.CellsTotal, found)
	}
	return found
}

// A *detected* crash yields lossy service that says so: the re-hashed home
// answers every query, but the events that lived on the corpse are gone —
// GHT's intrinsic single-copy weakness — and their points answer
// incomplete.
func TestDetectedCrashReportsItsLoss(t *testing.T) {
	s, net, router := newFaultUniverse(t, 300, 710)
	all := loadGHT(t, s, 300, 711)
	victim := mostLoaded(s)
	lostKeys := make(map[uint64]bool)
	for _, e := range s.storage[victim].AppendTo(nil) {
		lostKeys[e.Seq] = true
	}
	if len(lostKeys) == 0 {
		t.Fatal("victim holds nothing")
	}
	crashGHT(t, s, net, router, victim)

	sink := pickAliveGHT(s)
	hits := 0
	for _, e := range all {
		if checkPointQuery(t, s, sink, e) {
			hits++
			if lostKeys[e.Seq] {
				t.Errorf("event %d answered although its home died", e.Seq)
			}
		} else if !lostKeys[e.Seq] {
			t.Errorf("event %d lost although its home survived", e.Seq)
		}
	}
	if want := len(all) - len(lostKeys); hits != want {
		t.Errorf("recall = %d/%d, want %d (all but the corpse's share)", hits, len(all), want)
	}
}

// Satellite: ground-truth oracle for QueryWithReport. Under *silent*
// crashes (radio dead, repair never ran — the undetected-corpse window)
// and under detected ones (repair ran, and every point that held events
// on a corpse is lost) a GHT point query addresses exactly one home
// holding all of the key's events, so per query the completeness fraction
// must equal recall against an in-memory copy of everything inserted,
// mirroring the pool churn oracle.
func TestOracleCompletenessEqualsRecall(t *testing.T) {
	for _, plan := range []struct {
		name     string
		detected bool
	}{{"silent", false}, {"detected", true}} {
		detected := plan.detected
		t.Run(plan.name, func(t *testing.T) {
			s, net, router := newFaultUniverse(t, 300, 720)
			all := loadGHT(t, s, 300, 721)

			// Take down ~10% of the deployment.
			src := rng.New(722)
			downSet := make(map[int]bool)
			for _, id := range src.Perm(300)[:30] {
				if detected {
					crashGHT(t, s, net, router, id)
				} else {
					router.Exclude(id)
					net.FailNode(id)
				}
				downSet[id] = true
			}
			sink := pickAliveGHT(s)
			for downSet[sink] {
				sink++
			}

			sumComp, sumRecall := 0.0, 0.0
			for _, e := range all {
				q := pointQueryFor(e)
				oracle := q.Rewrite().Filter(all)
				got, comp, err := s.QueryWithReport(sink, q)
				if err != nil {
					t.Fatalf("event %d: a crash must degrade, not error: %v", e.Seq, err)
				}
				recall := 0.0
				if len(oracle) > 0 {
					hit := 0
					want := make(map[uint64]bool, len(oracle))
					for _, o := range oracle {
						want[o.Seq] = true
					}
					for _, g := range got {
						if want[g.Seq] {
							hit++
						}
					}
					recall = float64(hit) / float64(len(oracle))
				}
				if comp.Fraction() != recall {
					t.Fatalf("event %d: completeness %.3f != recall %.3f", e.Seq, comp.Fraction(), recall)
				}
				if !detected && !comp.Complete() && comp.Retries == 0 {
					t.Errorf("event %d: unreached home without a retry spent", e.Seq)
				}
				if len(comp.Unreached) != comp.CellsTotal-comp.CellsReached {
					t.Errorf("event %d: unreached list %d entries, want %d",
						e.Seq, len(comp.Unreached), comp.CellsTotal-comp.CellsReached)
				}
				sumComp += comp.Fraction()
				sumRecall += recall
			}
			if sumRecall >= float64(len(all)) {
				t.Error("the crashes lost nothing; oracle not exercised")
			}
			if sumComp != sumRecall {
				t.Errorf("aggregate completeness %.3f != aggregate recall %.3f", sumComp, sumRecall)
			}
		})
	}
}

func TestRecoverNodeComesBackEmpty(t *testing.T) {
	s, net, router := newFaultUniverse(t, 300, 740)
	loadGHT(t, s, 200, 741)
	victim := mostLoaded(s)
	crashGHT(t, s, net, router, victim)

	router.Restore(victim)
	net.RecoverNode(victim)
	s.RecoverNode(victim)
	if s.Failed(victim) {
		t.Fatal("recovered node still failed")
	}
	if s.storage[victim].Len() != 0 {
		t.Error("rebooted mote kept storage")
	}
	// Double-recover and double-fail are no-ops / idempotent.
	s.RecoverNode(victim)
	if err := s.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if !s.Failed(victim) {
		t.Error("second failure not recorded")
	}
	// Range checks.
	if err := s.FailNode(-1); err == nil {
		t.Error("FailNode(-1) accepted")
	}
	if err := s.FailNode(300); err == nil {
		t.Error("FailNode(out of range) accepted")
	}
	s.RecoverNode(-1) // must not panic
}

func TestCascadingFailuresStayServable(t *testing.T) {
	s, net, router := newFaultUniverse(t, 60, 750)
	all := loadGHT(t, s, 60, 751)
	order := rng.New(752).Perm(60)
	survivor := order[59]
	own := s.storage[survivor].Len()
	for _, id := range order[:59] {
		crashGHT(t, s, net, router, id)
		for _, e := range all {
			checkPointQuery(t, s, pickAliveGHT(s), e)
		}
	}
	if s.dead[survivor] {
		t.Fatal("survivor marked dead")
	}
	// Every home re-hashed to the survivor, which answers its own share.
	found := 0
	for _, e := range all {
		if checkPointQuery(t, s, survivor, e) {
			found++
		}
	}
	if found != own {
		t.Errorf("single survivor answers %d of %d events, want the %d it held", found, len(all), own)
	}
}
