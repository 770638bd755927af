package pool

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// newUniverse builds a Pool system exposing its network and router, so
// tests can fail nodes at every layer (the chaos engine's view).
func newUniverse(t testing.TB, n int, seed int64, opts ...Option) (*System, *network.Network, *gpsr.Router) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)
	s, err := New(net, router, 3, rng.New(seed+1), opts...)
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

// crash kills a node at every layer, the way the chaos engine does:
// routing first (so repair traffic detours around the corpse), then the
// radio, then the storage protocol.
func crash(t testing.TB, s *System, net *network.Network, router *gpsr.Router, id int) {
	t.Helper()
	// The check before the fault leaves the splitter memo warm, so the one
	// after it catches a re-election that did not invalidate it.
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	router.Exclude(id)
	net.FailNode(id)
	if err := s.FailNode(id); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

func TestFailMirrorBeforePrimary(t *testing.T) {
	s, net, router := newUniverse(t, 300, 520, WithReplication())
	all := loadEvents(t, s, 300, 521)

	// Find a loaded cell and fail its mirror first, then its primary.
	var key Key
	found := false
	for k, segs := range s.segs {
		if len(segs) > 0 && len(segs[0].events) > 0 && s.mirrors[k] >= 0 {
			key, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no mirrored cell with data")
	}
	mirror := s.mirrors[key]
	primary := s.holder[key.Cell]
	crash(t, s, net, router, mirror)
	// The mirror's failure must re-home the copy so the cell survives the
	// primary's failure too.
	if m := s.mirrors[key]; m < 0 || m == mirror || s.dead[m] {
		t.Fatalf("mirror not re-homed after its failure: %d", m)
	}
	crash(t, s, net, router, primary)

	got, comp, err := s.QueryWithReport(pickAlive(s), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Complete() {
		t.Errorf("completeness = %d/%d after mirror-then-primary failure", comp.CellsReached, comp.CellsTotal)
	}
	if len(got) != len(all) {
		t.Errorf("recall = %d/%d after mirror-then-primary failure", len(got), len(all))
	}
}

func TestCascadingFailuresUntilOneSurvivor(t *testing.T) {
	s, net, router := newUniverse(t, 60, 530, WithReplication())
	loadEvents(t, s, 60, 531)

	// Kill nodes one by one until a single survivor remains; every
	// intermediate state must keep FailNode and Query error-free.
	order := rng.New(532).Perm(60)
	for _, id := range order[:59] {
		crash(t, s, net, router, id)
		if _, _, err := s.QueryWithReport(pickAlive(s), fullDomain()); err != nil {
			t.Fatalf("query after killing %d: %v", id, err)
		}
	}
	survivor := order[59]
	if s.dead[survivor] {
		t.Fatal("survivor marked dead")
	}
	// The last node answers from whatever reached it; the fan-out must
	// still complete without a hard error.
	got, comp, err := s.QueryWithReport(survivor, fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if comp.CellsReached != comp.CellsTotal {
		t.Errorf("single survivor: completeness %d/%d (all cells re-homed to it)", comp.CellsReached, comp.CellsTotal)
	}
	_ = got
}

func TestFailRecoveredNodeAgain(t *testing.T) {
	s, net, router := newUniverse(t, 300, 540, WithReplication())
	all := loadEvents(t, s, 200, 541)

	victim := s.holder[s.Pools()[0].Cells()[0]]
	crash(t, s, net, router, victim)
	router.Restore(victim)
	net.RecoverNode(victim)
	s.RecoverNode(victim)
	if s.Failed(victim) {
		t.Fatal("recovered node still failed")
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	// Failing the recovered node again must be a real failure, not the
	// double-fail no-op: it holds no cells anymore, so nothing changes.
	crash(t, s, net, router, victim)
	if !s.Failed(victim) {
		t.Fatal("second failure not recorded")
	}
	got, comp, err := s.QueryWithReport(pickAlive(s), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Complete() || len(got) != len(all) {
		t.Errorf("recall %d/%d, completeness %d/%d after fail-recover-fail",
			len(got), len(all), comp.CellsReached, comp.CellsTotal)
	}
}

func TestSingleFailureWithReplicationRecallOne(t *testing.T) {
	// Property: whichever single node fails, a replicated Pool keeps
	// recall 1.0 — the mirror always restores the primary's loss.
	src := rng.New(550)
	for trial := 0; trial < 8; trial++ {
		seed := int64(560 + trial)
		s, net, router := newUniverse(t, 300, seed, WithReplication())
		all := loadEvents(t, s, 150, seed+10_000)
		victim := src.Intn(300)
		crash(t, s, net, router, victim)
		sink := pickAlive(s)
		got, comp, err := s.QueryWithReport(sink, fullDomain())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(all) {
			t.Errorf("trial %d: victim %d, recall %d/%d", trial, victim, len(got), len(all))
		}
		if !comp.Complete() {
			t.Errorf("trial %d: victim %d, completeness %d/%d", trial, victim, comp.CellsReached, comp.CellsTotal)
		}
	}
}

func TestGracefulDegradationWithoutRepair(t *testing.T) {
	// A node dead at the radio/routing layer but not yet detected by the
	// protocol (no FailNode) exercises the timeout-and-retry path: its
	// cells stay unreachable, the query returns the rest.
	s, net, router := newUniverse(t, 300, 570)
	all := loadEvents(t, s, 300, 571)

	victim, max := -1, 0
	for i, l := range s.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	router.Exclude(victim)
	net.FailNode(victim)
	// No s.FailNode: holders still point at the corpse.

	sink := pickAlive(s)
	if sink == victim {
		t.Fatal("sink is the victim")
	}
	got, comp, err := s.QueryWithReport(sink, fullDomain())
	if err != nil {
		t.Fatalf("undetected failure must degrade, not error: %v", err)
	}
	if comp.Complete() {
		t.Error("completeness reported full with an unreachable index node")
	}
	if comp.Retries == 0 {
		t.Error("no retries spent on the unreachable cells")
	}
	if len(comp.Unreached) != comp.CellsTotal-comp.CellsReached {
		t.Errorf("unreached list %d entries, want %d", len(comp.Unreached), comp.CellsTotal-comp.CellsReached)
	}
	if len(got) >= len(all) || len(got) == 0 {
		t.Errorf("partial recall = %d of %d", len(got), len(all))
	}
}

func TestMirrorServesUndetectedFailure(t *testing.T) {
	// With replication, the retry goes to the mirror: the cell is served
	// and recall stays perfect even before the failure is detected.
	s, net, router := newUniverse(t, 300, 580, WithReplication())
	all := loadEvents(t, s, 300, 581)

	victim, max := -1, 0
	for i, l := range s.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	// Only fail the victim if it holds primaries (not a pure delegate or
	// mirror): pick the holder of a loaded cell instead.
	var key Key
	for k, segs := range s.segs {
		if len(segs) > 0 && len(segs[0].events) > 0 && s.holder[k.Cell] == segs[0].node {
			key = k
			break
		}
	}
	victim = s.holder[key.Cell]
	_ = max
	// Mirrors are elected lazily at first insert, so the victim's *empty*
	// cells have none and must stay unreached; every loaded cell answers
	// from its mirror.
	expectUnreached := 0
	for _, p := range s.Pools() {
		for _, c := range p.Cells() {
			if s.holder[c] != victim {
				continue
			}
			if _, ok := s.MirrorFor(Key{Dim: p.Dim, Cell: c}, victim); !ok {
				expectUnreached++
			}
		}
	}
	router.Exclude(victim)
	net.FailNode(victim)

	sink := pickAlive(s)
	for sink == victim {
		sink++
	}
	got, comp, err := s.QueryWithReport(sink, fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Retries == 0 {
		t.Error("expected retries against the undetected corpse")
	}
	if unserved := comp.CellsTotal - comp.CellsReached; unserved != expectUnreached {
		t.Errorf("unserved cells = %d, want %d (the victim's unmirrored empty cells)", unserved, expectUnreached)
	}
	// Every lost cell was empty, so recall stays perfect.
	if len(got) != len(all) {
		t.Errorf("recall %d/%d with mirrors serving the victim's cells", len(got), len(all))
	}
}
