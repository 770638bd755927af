package pool

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// TestMirrorDivergenceRepairedByReconciliation is the deterministic
// regression for the known replication leak: an insert whose primary
// store succeeds but whose mirror copy dies against an undetected
// corpse leaves the pair diverged — silently, because the degradable
// error is all the caller sees. Without repair the divergence persists
// through the node's recovery; one reconciliation round closes it.
func TestMirrorDivergenceRepairedByReconciliation(t *testing.T) {
	s, net, router := newUniverse(t, 300, 600, WithReplication())
	loadEvents(t, s, 200, 601)

	// Silently crash a loaded cell's mirror: radio and routing die, but
	// no FailNode — the protocol still believes the mirror is alive.
	pairs := s.ReplicaPairs()
	if len(pairs) == 0 {
		t.Fatal("no replica pairs")
	}
	var victim Key
	mirror := -1
	for _, key := range s.MirrorKeys() {
		if m := s.mirrors[key]; m >= 0 && len(s.copies[key]) > 0 {
			victim, mirror = key, m
			break
		}
	}
	if mirror < 0 {
		t.Fatal("no loaded mirror")
	}
	router.Exclude(mirror)
	net.FailNode(mirror)

	// Concurrent inserts during the undetected window: events that land
	// in cells mirrored at the corpse store at their primaries but lose
	// the mirror copy.
	// A degradable insert error can also mean the event never stored at
	// all (origin→index leg failed); keep inserting until a primary-only
	// copy actually exists.
	src := rng.New(602)
	failed := 0
	for i := 0; i < 400 && antientropy.Divergence(s) == 0; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(10_000 + i)
		if err := s.Insert(src.Intn(net.Layout().N()), e); err != nil {
			if !dcs.IsDegradable(err) {
				t.Fatal(err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no insert degraded against the corpse; adjust seeds")
	}
	if antientropy.Divergence(s) == 0 {
		t.Fatal("no insert diverged mirror from primary — regression gone?")
	}

	// The corpse reboots (storage intact at this layer: the mirrorStore
	// was never touched). Without reconciliation the divergence persists.
	router.Restore(mirror)
	net.RecoverNode(mirror)
	before := antientropy.Divergence(s)
	if before == 0 {
		t.Fatal("recovery alone repaired the divergence — nothing to regress")
	}

	sched := sim.NewScheduler()
	rec := antientropy.New(sched, net, router, antientropy.Config{}, s)
	moved := rec.RunRound()
	if errs := rec.Errs(); len(errs) != 0 {
		t.Fatalf("reconciliation errors: %v", errs)
	}
	if moved == 0 {
		t.Fatal("reconciliation moved no events over a diverged pair")
	}
	if d := antientropy.Divergence(s); d != 0 {
		t.Fatalf("divergence %d after reconciliation, want 0 (was %d)", d, before)
	}
	if !antientropy.Converged(s) {
		t.Fatal("Converged disagrees with zero divergence")
	}
	_ = victim
}

// TestReconcilerPushesMirrorOnlyEventsBack covers the reverse direction:
// an event present only in the mirror copy flows back to the primary.
func TestReconcilerPushesMirrorOnlyEventsBack(t *testing.T) {
	s, net, router := newUniverse(t, 200, 610, WithReplication())
	loadEvents(t, s, 100, 611)

	var key Key
	found := false
	for _, k := range s.MirrorKeys() {
		if s.mirrors[k] >= 0 && len(s.copies[k]) > 0 {
			key, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no loaded mirror")
	}
	orphan := event.New(0.5, 0.5, 0.5)
	orphan.Seq = 99_999
	s.AppendMirror(key, orphan)
	if antientropy.Divergence(s) != 1 {
		t.Fatalf("divergence %d after orphan injection, want 1", antientropy.Divergence(s))
	}

	sched := sim.NewScheduler()
	rec := antientropy.New(sched, net, router, antientropy.Config{}, s)
	if moved := rec.RunRound(); moved != 1 {
		t.Fatalf("moved %d events, want 1", moved)
	}
	if !antientropy.Converged(s) {
		t.Fatal("orphan not pushed back to primary")
	}
	// The orphan is now queryable through the primary path.
	got, _, err := s.QueryWithReport(pickAlive(s), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, e := range got {
		if e.Seq == orphan.Seq {
			seen = true
		}
	}
	if !seen {
		t.Fatal("repaired orphan invisible to queries")
	}
}

// TestReconcilerAbortsAgainstCorpseThenConverges: sessions against an
// undetected corpse abort gracefully (retry next round) and converge
// once the node is back.
func TestReconcilerAbortsAgainstCorpseThenConverges(t *testing.T) {
	s, net, router := newUniverse(t, 200, 620, WithReplication())
	loadEvents(t, s, 100, 621)

	mirror := -1
	var key Key
	for _, k := range s.MirrorKeys() {
		if m := s.mirrors[k]; m >= 0 && len(s.copies[k]) > 0 {
			mirror, key = m, k
			break
		}
	}
	if mirror < 0 {
		t.Fatal("no loaded mirror")
	}
	// Orphan an event at the corpse-mirrored cell so a session has real
	// work it cannot finish.
	orphan := event.New(0.25, 0.75, 0.5)
	orphan.Seq = 88_888
	s.AppendMirror(key, orphan)

	router.Exclude(mirror)
	net.FailNode(mirror)

	sched := sim.NewScheduler()
	rec := antientropy.New(sched, net, router, antientropy.Config{}, s)
	rec.RunRound()
	if rec.Aborted() == 0 {
		t.Fatal("no session aborted against the corpse")
	}
	if errs := rec.Errs(); len(errs) != 0 {
		var first error
		if len(errs) > 0 {
			first = errs[0]
		}
		if !errors.Is(first, dcs.ErrUnreachable) {
			t.Fatalf("non-degradable errors: %v", errs)
		}
	}

	router.Restore(mirror)
	net.RecoverNode(mirror)
	rec.RunRound()
	if !antientropy.Converged(s) {
		t.Fatal("pairs not converged after recovery round")
	}
}

// A copy that holds an event twice summarises — and so reconciles — as
// holding it once, as the codec promises; the duplicate is invisible to
// the set summary but not to its position index.
func TestSummaryIgnoresDuplicates(t *testing.T) {
	s, net, router := newUniverse(t, 300, 77, WithReplication())
	loadEvents(t, s, 200, 78)
	pairs := s.ReplicaPairs()
	loaded := -1
	for i, p := range pairs {
		if p.Primary.Len() > 1 {
			loaded = i
			break
		}
	}
	if loaded < 0 {
		t.Fatal("no cell holds two events")
	}
	p := pairs[loaded]
	before := *p.Primary.(antientropy.Summarizer).Summary()
	before.Keys, before.First = slices.Clone(before.Keys), slices.Clone(before.First)

	// The primary takes a second copy of its first event.
	dup := p.Primary.Fetch(before.Keys[:1], nil)
	if len(dup) != 1 {
		t.Fatalf("fetched %d events for one held digest", len(dup))
	}
	p.Primary.Insert(dup[0])
	if got := p.Primary.Len(); got != len(before.Keys)+1 {
		t.Fatalf("primary holds %d events, want %d", got, len(before.Keys)+1)
	}
	after := p.Primary.(antientropy.Summarizer).Summary()
	if !after.Equal(&before) {
		t.Fatalf("summary moved with a duplicate: %+v, was %+v", after.Zero, before.Zero)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// So the pair is still in sync, one symbol confirms it, and nothing moves.
	rec := antientropy.New(sim.NewScheduler(), net, router, antientropy.Config{}, s)
	if moved := rec.RunRound(); moved != 0 {
		t.Fatalf("round moved %d events for a duplicate", moved)
	}
	if rec.Symbols() != rec.Sessions() || rec.Sessions() != uint64(len(pairs)) {
		t.Fatalf("%d sessions cost %d symbols over %d pairs, want one each", rec.Sessions(), rec.Symbols(), len(pairs))
	}
	if got := p.Replica.Len(); got != len(before.Keys) {
		t.Fatalf("mirror holds %d events, want %d", got, len(before.Keys))
	}
}

// The fault repairs and Load write a whole copy at once — a mirror
// re-homed onto a fresh node, a primary dropped for want of a replica, a
// dump restored over live cells — and each must end the life of the
// summary it overwrites, also when the new contents differ from the old.
func TestRepairAndLoadInvalidateSummaries(t *testing.T) {
	s, net, router := newUniverse(t, 300, 610, WithReplication())
	loadEvents(t, s, 200, 611)
	honest := func(after string) {
		t.Helper()
		if err := s.CheckSummaries(); err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		antientropy.Divergence(s)
	}
	honest("load")

	// Two loaded cells that share no node.
	var cells []Key
	used := map[int]bool{}
	for _, p := range s.ReplicaPairs() {
		key := p.Primary.(cellCopy).key
		if p.Primary.Len() == 0 || used[p.Primary.Node()] || used[p.Replica.Node()] {
			continue
		}
		used[p.Primary.Node()], used[p.Replica.Node()] = true, true
		if cells = append(cells, key); len(cells) == 2 {
			break
		}
	}
	if len(cells) < 2 {
		t.Fatal("no two loaded cells on distinct nodes")
	}

	// A mirror re-homed takes the primary's copy, which here holds an event
	// the old mirror never saw.
	a := cells[0]
	extra := event.New(0.5, 0.5, 0.5)
	extra.Seq = 90_000
	cellCopy{st: s.Store, key: a}.Insert(extra)
	honest("primary-only insert")
	crash(t, s, net, router, s.mirrors[a])
	honest("mirror re-homing")
	if d := antientropy.Divergence(s); d != 0 {
		t.Fatalf("divergence %d after the mirror took a fresh copy", d)
	}

	// A cell that has no mirror when its index node dies loses its events.
	b := cells[1]
	s.SetMirror(b, -1)
	honest("mirror dropped")
	crash(t, s, net, router, s.holder[b.Cell])
	honest("unreplicated loss")
	if n := (cellCopy{st: s.Store, key: b}).Len(); n != 0 {
		t.Fatalf("%d events survived the loss of an unmirrored cell", n)
	}

	// A dump loaded over live cells.
	other, _, _ := newUniverse(t, 300, 612)
	loadEvents(t, other, 50, 613)
	var buf bytes.Buffer
	if _, err := other.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	before := antientropy.Divergence(s)
	if n, err := s.Load(&buf); err != nil || n != 50 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	honest("load over live cells")
	if after := antientropy.Divergence(s); after != before {
		t.Fatalf("divergence %d after Load, was %d: Load fills primary and mirror alike", after, before)
	}
}
