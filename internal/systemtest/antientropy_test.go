package systemtest

import (
	"testing"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
)

// TestConformanceAntiEntropyEventualEquality pins the repair contract
// for every replicated flavour: after a replica node crashes silently,
// inserts flow through the undetected window, and the node recovers,
// a bounded number of reconciliation rounds must leave every replica
// pair holding identical digest sets — and the full query sweep must
// come back whole.
func TestConformanceAntiEntropyEventualEquality(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			u, err := BuildUniverse(f, confNodes, confEvents, confDims, confSeed+77)
			if err != nil {
				t.Fatal(err)
			}
			// Unreplicated flavours have nothing to reconcile; the replicated
			// synchronous Pool must produce pairs or the contract is broken.
			replicated := map[string]bool{"pool+repl": true}
			src, ok := u.Sys.(antientropy.PairSource)
			if !ok {
				if replicated[f.Name] {
					t.Fatalf("%s does not expose replica pairs", f.Name)
				}
				t.Skipf("%s exposes no replica pairs", f.Name)
			}
			// A system with invariants (Pool) must keep them through every
			// step of the divergence window: its copies' kept fingerprints
			// among them.
			step := func(what string) {
				t.Helper()
				if c, ok := u.Sys.(interface{ CheckInvariants() error }); ok {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("after %s: %v", what, err)
					}
				}
			}
			size := func(c antientropy.Store) int { return len(c.AppendDigests(nil)) }
			step("load")
			pairs := src.ReplicaPairs()
			if len(pairs) == 0 {
				if replicated[f.Name] {
					t.Fatalf("%s: no replica pairs after load", f.Name)
				}
				t.Skipf("%s is unreplicated", f.Name)
			}
			loaded := -1
			for i, p := range pairs {
				if size(p.Replica) > 0 || size(p.Primary) > 0 {
					loaded = i
					break
				}
			}
			if loaded < 0 {
				t.Fatal("every pair empty after load")
			}

			// Open the divergence window: the loaded pair's replica node
			// goes down silently, inserts keep flowing (degradable failures
			// are the scenario — events that land nowhere stay out of the
			// oracle), and three land on the loaded pair's primary alone.
			victim := pairs[loaded].Replica.Node()
			u.CrashSilent(victim)
			step("silent crash")
			n := u.Net.Layout().N()
			for i := 0; i < 30; i++ {
				origin := (victim + 1 + i*7) % n
				if u.Engine.Down(origin) || origin == victim {
					continue
				}
				if err := u.Insert(origin, eventAt(confDims, 10_000+i)); err != nil {
					if !dcs.IsDegradable(err) {
						t.Fatalf("insert %d: non-degradable error: %v", i, err)
					}
				}
				step("insert")
			}
			// Each is a sibling of an event the pair holds, inserted at the
			// primary's node: the unit acks it there, and its replica write
			// is lost to the crashed node without failing the insert.
			primary, side := pairs[loaded].Primary, pairs[loaded].Primary
			if size(side) == 0 {
				side = pairs[loaded].Replica
			}
			held := side.Fetch(side.AppendDigests(nil)[:1], nil)[0]
			for i := 0; i < 3; i++ {
				e := event.New(held.Values...)
				e.Seq = uint64(20_000 + i)
				before := size(primary)
				if err := u.Insert(primary.Node(), e); err != nil {
					t.Fatalf("primary-only insert %d: %v", i, err)
				}
				if size(primary) != before+1 {
					t.Fatalf("primary-only insert %d did not land on the loaded pair's primary", i)
				}
				step("primary-only insert")
			}
			u.Recover(victim)
			step("recover")

			if antientropy.Divergence(src) == 0 {
				t.Fatal("window closed with no divergence to repair")
			}

			rec := antientropy.New(u.Sched, u.Net, u.Router, antientropy.Config{}, src)
			for round := 0; round < 6 && antientropy.Divergence(src) != 0; round++ {
				rec.RunRound()
				step("round")
			}
			if errs := rec.Errs(); len(errs) != 0 {
				t.Fatalf("reconciliation errors: %v", errs)
			}
			if d := antientropy.Divergence(src); d != 0 {
				t.Fatalf("residual divergence %d after repair rounds", d)
			}
			for _, p := range src.ReplicaPairs() {
				if !antientropy.PairInSync(p) {
					t.Errorf("pair %d not in sync", p.ID)
				}
			}

			rep := u.RunQueries(u.PickAlive())
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if r := rep.MeanRecall(); r != 1 {
				t.Errorf("mean recall %v after repair, want exactly 1", r)
			}
			if !rep.AllComplete() {
				t.Errorf("only %d/%d queries complete after recovery", rep.Complete, rep.Queries)
			}
		})
	}
}
