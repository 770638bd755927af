package pool

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// loadedSystems builds a plain and a replicated Pool over the same
// deployment with identical events, returning the event population.
func loadedSystems(t *testing.T, seed int64, n int) (plain, repl *System, all []event.Event) {
	t.Helper()
	plain, _ = newSystem(t, 300, seed)
	repl, _ = newSystem(t, 300, seed, WithReplication())

	src := rng.New(seed + 1000)
	for i := 0; i < n; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		all = append(all, e)
		origin := src.Intn(300)
		if err := plain.Insert(origin, e); err != nil {
			t.Fatal(err)
		}
		if err := repl.Insert(origin, e); err != nil {
			t.Fatal(err)
		}
	}
	return plain, repl, all
}

func fullDomain() event.Query {
	return event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
}

func TestReplicationCopiesEveryEvent(t *testing.T) {
	_, repl, all := loadedSystems(t, 120, 200)
	copies := 0
	for _, events := range repl.copies {
		copies += len(events)
	}
	if copies != len(all) {
		t.Errorf("mirrors hold %d copies, want %d", copies, len(all))
	}
}

func TestFailNodeWithoutReplicationLosesData(t *testing.T) {
	plain, _, all := loadedSystems(t, 121, 300)
	// Fail the node holding the most events.
	victim, max := -1, 0
	for i, l := range plain.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	if victim < 0 {
		t.Fatal("no loaded node")
	}
	if err := plain.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	got, err := plain.Query(pickAlive(plain), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-max {
		t.Errorf("recall after failure = %d, want %d (lost %d)", len(got), len(all)-max, max)
	}
}

func TestFailNodeWithReplicationKeepsData(t *testing.T) {
	_, repl, all := loadedSystems(t, 122, 300)
	victim, max := -1, 0
	for i, l := range repl.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	if err := repl.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if repl.RecoveryMessages() == 0 {
		t.Error("recovery reported no traffic")
	}
	got, err := repl.Query(pickAlive(repl), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Errorf("recall with replication = %d, want %d", len(got), len(all))
	}
}

func pickAlive(s *System) int {
	for i := range s.dead {
		if !s.dead[i] {
			return i
		}
	}
	return 0
}

func TestInsertAfterFailureUsesNewIndex(t *testing.T) {
	_, repl, _ := loadedSystems(t, 123, 50)
	// Fail every original index node of pool 1's cells one by one and keep
	// inserting; events must remain retrievable.
	p := repl.Pools()[0]
	victims := map[int]bool{}
	for _, c := range p.Cells()[:5] {
		victims[repl.IndexNode(c)] = true
	}
	for v := range victims {
		if err := repl.FailNode(v); err != nil {
			t.Fatal(err)
		}
	}
	e := event.New(0.05, 0.01, 0.02) // lands in pool 1, low cells
	e.Seq = 9999
	if err := repl.Insert(pickAlive(repl), e); err != nil {
		t.Fatal(err)
	}
	got, err := repl.Query(pickAlive(repl), event.NewQuery(
		event.Span(0, 0.1), event.Span(0, 0.1), event.Span(0, 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range got {
		if g.Seq == 9999 {
			found = true
		}
	}
	if !found {
		t.Error("event inserted after failures not found")
	}
}

func TestCascadingFailures(t *testing.T) {
	_, repl, all := loadedSystems(t, 124, 300)
	src := rng.New(125)
	killed := map[int]bool{}
	for len(killed) < 30 {
		v := src.Intn(300)
		if killed[v] {
			continue
		}
		killed[v] = true
		if err := repl.FailNode(v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := repl.Query(pickAlive(repl), fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	// With single mirroring, only a cell losing BOTH its index and mirror
	// before recovery loses events; 10% random failures should keep
	// recall near 100%.
	if float64(len(got)) < 0.95*float64(len(all)) {
		t.Errorf("recall after 10%% failures = %d/%d", len(got), len(all))
	}
	// Double-failing is a no-op.
	for v := range killed {
		if err := repl.FailNode(v); err != nil {
			t.Fatal(err)
		}
		break
	}
}

func TestFailNodeValidation(t *testing.T) {
	plain, _ := newSystem(t, 300, 126)
	if err := plain.FailNode(-1); err == nil {
		t.Error("negative id accepted")
	}
	if err := plain.FailNode(10_000); err == nil {
		t.Error("out-of-range id accepted")
	}
	if plain.Failed(5) {
		t.Error("fresh node reported failed")
	}
	if err := plain.FailNode(5); err != nil {
		t.Fatal(err)
	}
	if !plain.Failed(5) {
		t.Error("failed node not reported")
	}
}

func TestReplicationCostsInsertTraffic(t *testing.T) {
	plainNet := func(seed int64, opts ...Option) uint64 {
		s, net := newSystem(t, 300, seed, opts...)
		src := rng.New(seed + 50)
		for i := 0; i < 100; i++ {
			if err := s.Insert(src.Intn(300), event.New(src.Float64(), src.Float64(), src.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		return net.Snapshot().Messages[network.KindInsert]
	}
	without := plainNet(127)
	with := plainNet(127, WithReplication())
	if with <= without {
		t.Errorf("replication traffic (%d) not above plain (%d)", with, without)
	}
}
