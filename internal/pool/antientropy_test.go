package pool

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/holding"
	"pooldcs/internal/network"
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
		if m := s.Mirror(key); m >= 0 && len(s.MirrorCopy(key)) > 0 {
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
		if s.Mirror(k) >= 0 && len(s.MirrorCopy(k)) > 0 {
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
	if antientropy.Divergence(s) != 0 {
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
		if m := s.Mirror(k); m >= 0 && len(s.MirrorCopy(k)) > 0 {
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
	if antientropy.Divergence(s) != 0 {
		t.Fatal("pairs not converged after recovery round")
	}
}

// A copy that holds an event twice holds its pair's set, but not its
// fingerprint: it does not vouch, and its session runs the codec, which
// decodes an empty difference from the frame an in-sync pair sends. So
// one round moves nothing and costs what it costs when every pair is in
// sync.
func TestSummaryIgnoresDuplicates(t *testing.T) {
	round := func(dup bool) (*antientropy.Reconciler, network.Counters) {
		t.Helper()
		s, net, router := newUniverse(t, 300, 77, WithReplication())
		loadEvents(t, s, 200, 78)
		pairs := s.ReplicaPairs()
		loaded := slices.IndexFunc(pairs, func(p antientropy.Pair) bool { return len(p.Primary.AppendDigests(nil)) > 1 })
		if loaded < 0 {
			t.Fatal("no cell holds two events")
		}
		p := pairs[loaded]
		key := p.Primary.(*holding.Copy[Key]).Unit()
		if p.Primary.Fingerprint() != p.Replica.Fingerprint() || !s.Vouches(key, false) {
			t.Fatal("a loaded pair disagrees before the duplicate")
		}
		if dup {
			p.Primary.Insert(p.Primary.Fetch(p.Primary.AppendDigests(nil)[:1], nil)[0])
			if p.Primary.Fingerprint() == p.Replica.Fingerprint() || s.Vouches(key, false) {
				t.Fatal("a primary holding an event twice agrees with its mirror, or vouches")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		rec := antientropy.New(sim.NewScheduler(), net, router, antientropy.Config{}, s)
		if moved := rec.RunRound(); moved != 0 {
			t.Fatalf("round moved %d events (duplicate %v)", moved, dup)
		}
		if rec.Symbols() != rec.Sessions() || rec.Sessions() != uint64(len(pairs)) {
			t.Fatalf("%d sessions cost %d symbols over %d pairs, want one each", rec.Sessions(), rec.Symbols(), len(pairs))
		}
		return rec, net.Snapshot()
	}
	dup, dupRadio := round(true)
	sync, syncRadio := round(false)
	if dup.Symbols() != sync.Symbols() || dup.Bytes() != sync.Bytes() {
		t.Errorf("with a duplicate: %d symbols, %d bytes; in sync: %d, %d",
			dup.Symbols(), dup.Bytes(), sync.Symbols(), sync.Bytes())
	}
	if !reflect.DeepEqual(dupRadio, syncRadio) {
		t.Errorf("radio counters differ from an in-sync round:\n got %+v\nwant %+v", dupRadio, syncRadio)
	}
}

// After a load, the fault repairs write a whole copy at once — a mirror
// re-homed onto a fresh node, a primary dropped for want of a replica —
// and each must replace the summary the store keeps of the copy it
// overwrites, its fingerprint, also when the new contents differ from the
// old.
func TestRepairAndLoadInvalidateSummaries(t *testing.T) {
	s, net, router := newUniverse(t, 300, 610, WithReplication())
	loadEvents(t, s, 200, 611)
	honest := func(after string) {
		t.Helper()
		for _, err := range []error{s.CheckStore(), CheckReplicaPairs(s)} {
			if err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
		}
	}
	honest("load")

	// Two loaded cells that share no node.
	var cells []Key
	used := map[int]bool{}
	for _, p := range s.ReplicaPairs() {
		key := p.Primary.(*holding.Copy[Key]).Unit()
		if len(p.Primary.AppendDigests(nil)) == 0 || used[p.Primary.Node()] || used[p.Replica.Node()] {
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
	primaryA, _ := s.Copies(a, s.IndexNode(a.Cell), s.Mirror(a))
	primaryA.Insert(extra)
	honest("primary-only insert")
	crash(t, s, net, router, s.Mirror(a))
	honest("mirror re-homing")
	if d := antientropy.Divergence(s); d != 0 {
		t.Fatalf("divergence %d after the mirror took a fresh copy", d)
	}

	// A cell that has no mirror when its index node dies loses its events.
	b := cells[1]
	s.SetMirror(b, -1)
	honest("mirror dropped")
	crash(t, s, net, router, s.IndexNode(b.Cell))
	honest("unreplicated loss")
	primaryB, _ := s.Copies(b, s.IndexNode(b.Cell), s.Mirror(b))
	if n := len(primaryB.AppendDigests(nil)); n != 0 {
		t.Fatalf("%d events survived the loss of an unmirrored cell", n)
	}
}

// A round over a converged replicated Pool allocates nothing: the pair
// walk rebuilds its list in place from the cells' own records, and each
// in-sync session sends its one frame down a warm route.
func TestConvergedRoundAllocatesNothing(t *testing.T) {
	s, net, router := newUniverse(t, 300, 630, WithReplication())
	loadEvents(t, s, 200, 631)
	rec := antientropy.New(sim.NewScheduler(), net, router, antientropy.Config{}, s)
	if moved := rec.RunRound(); moved != 0 || len(s.ReplicaPairs()) == 0 {
		t.Fatalf("a freshly loaded store moved %d events over %d pairs", moved, len(s.ReplicaPairs()))
	}
	if n := testing.AllocsPerRun(20, func() { rec.RunRound() }); n != 0 {
		t.Fatalf("a converged round allocates %v times", n)
	}
}
