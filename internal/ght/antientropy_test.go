package ght

import (
	"testing"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/sim"
)

// TestReconciliationConvergesSiblingShares proves the anti-entropy
// upgrade of structured replication: disjoint mirror shares converge to
// the union, queries stay single-copy via dedup, and after convergence
// a crashed home loses nothing — the exact share loss
// TestStructuredReplicationSurvivesMirrorLoss documents is repaired.
func TestReconciliationConvergesSiblingShares(t *testing.T) {
	s, net, router := newFaultUniverse(t, 300, 760, WithStructuredReplication(1))
	all := loadGHT(t, s, 200, 761)

	pairs := s.ReplicaPairs()
	if len(pairs) == 0 {
		t.Fatal("no replica pairs from structured replication")
	}
	if antientropy.Divergence(s) == 0 {
		t.Fatal("SR shares start disjoint; divergence must be positive")
	}

	sched := sim.NewScheduler()
	rec := antientropy.New(sched, net, router, antientropy.Config{}, s)
	// A star topology needs two rounds: spokes→hub, then hub→spokes.
	for round := 0; round < 4 && !antientropy.Converged(s); round++ {
		rec.RunRound()
	}
	if errs := rec.Errs(); len(errs) != 0 {
		t.Fatalf("reconciliation errors: %v", errs)
	}
	if !antientropy.Converged(s) {
		t.Fatalf("shares not converged; residual divergence %d", antientropy.Divergence(s))
	}

	// Converged mirrors answer exactly one copy per event (digest dedup).
	sink := pickAliveGHT(s)
	for _, e := range all[:50] {
		got, comp, err := s.QueryWithReport(sink, pointQueryFor(e))
		if err != nil {
			t.Fatal(err)
		}
		if !comp.Complete() {
			t.Fatalf("event %d: completeness %d/%d", e.Seq, comp.CellsReached, comp.CellsTotal)
		}
		if len(got) != 1 {
			t.Fatalf("event %d: %d copies returned, want 1 after dedup", e.Seq, len(got))
		}
	}

	// The payoff: a crashed home's share is no longer lost.
	victim := mostLoaded(s)
	if s.storage[victim].Len() == 0 {
		t.Fatal("degenerate spread")
	}
	crashGHT(t, s, net, router, victim)
	sink = pickAliveGHT(s)
	for _, e := range all {
		got, _, err := s.QueryWithReport(sink, pointQueryFor(e))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("event %d: %d copies after home crash, want 1 (siblings hold the union)", e.Seq, len(got))
		}
	}
}

// TestReplicaPairsDisabledWithoutSR: plain GHT has no replicas to pair.
func TestReplicaPairsDisabledWithoutSR(t *testing.T) {
	s, _, _ := newFaultUniverse(t, 100, 770)
	loadGHT(t, s, 20, 771)
	if pairs := s.ReplicaPairs(); pairs != nil {
		t.Fatalf("plain GHT produced %d pairs", len(pairs))
	}
}
