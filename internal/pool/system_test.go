package pool

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// withPivots pins the Pool pivot cells instead of placing them randomly.
// One pivot per event dimension is required.
func withPivots(pivots []CellID) Option {
	return optionFunc(func(c *config) { c.pivots = append([]CellID(nil), pivots...) })
}

func newSystem(t testing.TB, n int, seed int64, opts ...Option) (*System, *network.Network) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	s, err := New(net, gpsr.New(l), 3, rng.New(seed+1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, net
}

func TestNewValidation(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(60))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)

	if _, err := New(net, router, 0, rng.New(1)); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := New(net, router, 3, nil); err == nil {
		t.Error("nil rng without pivots accepted")
	}
	if _, err := New(net, router, 3, nil, withPivots([]CellID{{0, 0}})); err == nil {
		t.Error("wrong pivot count accepted")
	}
	if _, err := New(net, router, 3, nil, withPivots([]CellID{{0, 0}, {1, 1}, {1000, 1000}})); err == nil {
		t.Error("out-of-grid pivot accepted")
	}
	// A pool side larger than the whole grid must fail.
	if _, err := New(net, router, 3, rng.New(1), WithPoolSide(10000)); err == nil {
		t.Error("oversized pool accepted")
	}
}

func TestPoolsFitGridAndAreDisjoint(t *testing.T) {
	s, _ := newSystem(t, 900, 61)
	g := s.Grid()
	pools := s.Pools()
	if len(pools) != 3 {
		t.Fatalf("%d pools, want 3", len(pools))
	}
	for i, p := range pools {
		if p.Dim != i+1 || p.Side != DefaultSide {
			t.Errorf("pool %d = %v", i, p)
		}
		for _, c := range p.Cells() {
			if !g.Contains(c) {
				t.Fatalf("pool %v cell %v outside grid", p, c)
			}
		}
		for j := 0; j < i; j++ {
			if overlaps(p.Pivot, pools[j].Pivot, p.Side) {
				t.Errorf("pools %d and %d overlap", i+1, j+1)
			}
		}
	}
}

func TestEveryPoolCellHasIndexNode(t *testing.T) {
	s, net := newSystem(t, 900, 62)
	for _, p := range s.Pools() {
		for _, c := range p.Cells() {
			h := s.IndexNode(c)
			if h < 0 || h >= net.Layout().N() {
				t.Fatalf("cell %v has invalid index node %d", c, h)
			}
		}
	}
	if s.IndexNode(CellID{X: -5, Y: -5}) != -1 {
		t.Error("cell outside pools should have no index node")
	}
}

// The index nodes sit in a row-major table over the grid, where a cell
// just off one edge computes the index of a real cell (X == Cols is the
// next row's first): off-grid cells must be refused, not aliased.
func TestIndexNodeOffGrid(t *testing.T) {
	s, _ := newSystem(t, 900, 62)
	g := s.Grid()
	for _, c := range []CellID{{X: g.Cols, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: g.Rows}, {X: 0, Y: -1}} {
		if h := s.IndexNode(c); h != -1 {
			t.Errorf("IndexNode(%v) = %d on a %dx%d grid, want -1", c, h, g.Cols, g.Rows)
		}
	}
}

func TestInsertAndExactRangeQuery(t *testing.T) {
	s, net := newSystem(t, 300, 63)
	src := rng.New(64)

	var all []event.Event
	for i := 0; i < 300; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		all = append(all, e)
		if err := s.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
	}
	if net.Snapshot().Messages[network.KindInsert] == 0 {
		t.Fatal("insertions generated no traffic")
	}

	queries := []event.Query{
		event.NewQuery(event.Span(0.2, 0.5), event.Span(0.1, 0.9), event.Span(0, 1)),
		event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1)),
		event.NewQuery(event.Span(0.7, 0.75), event.Span(0.7, 0.75), event.Span(0.7, 0.75)),
		event.NewQuery(event.Unspecified(), event.Span(0.3, 0.5), event.Unspecified()),
		event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84)),
	}
	for qi, q := range queries {
		got, err := s.Query(src.Intn(300), q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := q.Rewrite().Filter(all)
		gotSet := make(map[uint64]bool, len(got))
		for _, e := range got {
			if gotSet[e.Seq] {
				t.Fatalf("query %d returned duplicate seq %d", qi, e.Seq)
			}
			gotSet[e.Seq] = true
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for _, w := range want {
			if !gotSet[w.Seq] {
				t.Fatalf("query %d missing event %d", qi, w.Seq)
			}
		}
	}
}

func TestTiedEventsStoredOnceAndFound(t *testing.T) {
	s, _ := newSystem(t, 300, 65)
	e := event.New(0.4, 0.4, 0.2)
	e.Seq = 77
	if err := s.Insert(5, e); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range s.StorageLoad() {
		total += l
	}
	if total != 1 {
		t.Fatalf("tied event stored %d times, want 1 (§4.1)", total)
	}
	got, err := s.Query(100, event.NewQuery(event.Span(0.35, 0.45), event.Span(0.35, 0.45), event.Span(0.1, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 77 {
		t.Fatalf("tied event not retrieved: %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	s, _ := newSystem(t, 300, 66)
	if err := s.Insert(0, event.New(1.5, 0.2, 0.2)); err == nil {
		t.Error("invalid event accepted")
	}
	if err := s.Insert(0, event.New(0.5, 0.2)); err == nil {
		t.Error("wrong dimensionality accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	s, _ := newSystem(t, 300, 66)
	if _, err := s.Query(0, event.NewQuery(event.Span(0.9, 0.1), event.Span(0, 1), event.Span(0, 1))); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := s.Query(0, event.NewQuery(event.Span(0, 1))); err == nil {
		t.Error("wrong dimensionality accepted")
	}
}

func TestRelevantCellsMapSkipsEmptyPools(t *testing.T) {
	s, _ := newSystem(t, 300, 67)
	// Example 3.1's query leaves P3 irrelevant.
	q := event.NewQuery(event.Span(0.2, 0.3), event.Span(0.25, 0.35), event.Span(0.21, 0.24))
	m := s.RelevantCells(q)
	if len(m[1]) == 0 || len(m[2]) == 0 {
		t.Errorf("relevant cells = %v; P1 and P2 must be present", m)
	}
	if _, ok := m[3]; ok {
		t.Errorf("P3 must be absent, got %v", m[3])
	}
}

func TestSplitterIsPoolIndexNodeClosestToSink(t *testing.T) {
	s, net := newSystem(t, 300, 68)
	layout := net.Layout()
	sink := 42
	for _, p := range s.Pools() {
		splitter := s.SplitterFor(p, sink)
		sd := layout.Pos(splitter).Dist2(layout.Pos(sink))
		for _, c := range p.Cells() {
			if d := layout.Pos(s.IndexNode(c)).Dist2(layout.Pos(sink)); d < sd {
				t.Fatalf("pool %v: index node %d closer to sink than splitter %d",
					p, s.IndexNode(c), splitter)
			}
		}
	}
}

func TestQueryVisitsOnlyPoolsWithRelevantCells(t *testing.T) {
	s, net := newSystem(t, 300, 69)
	// No insertions: query traffic is pure dissemination.
	q := event.NewQuery(event.Span(0.2, 0.3), event.Span(0.25, 0.35), event.Span(0.21, 0.24))
	before := net.Snapshot()
	if _, err := s.Query(0, q); err != nil {
		t.Fatal(err)
	}
	diff := net.Diff(before)
	if diff.Messages[network.KindQuery] == 0 {
		t.Error("query generated no traffic")
	}
	if diff.Messages[network.KindReply] != 0 {
		t.Error("empty store must produce no replies")
	}
}

func TestStorageLoadTotals(t *testing.T) {
	s, _ := newSystem(t, 300, 70)
	src := rng.New(71)
	const n = 120
	for i := 0; i < n; i++ {
		if err := s.Insert(src.Intn(300), event.New(src.Float64(), src.Float64(), src.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, l := range s.StorageLoad() {
		total += l
	}
	if total != n {
		t.Errorf("storage totals %d, want %d", total, n)
	}
}

func TestWithPivotsPinsLayout(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(900), rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	pivots := []CellID{{1, 2}, {2, 10}, {7, 3}}
	s, err := New(net, gpsr.New(l), 3, nil, withPivots(pivots), WithPoolSide(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Pools() {
		if p.Pivot != pivots[i] || p.Side != 5 {
			t.Errorf("pool %d = %v", i, p)
		}
	}
}

func TestWorkloadSharingBoundsPerNodeStorage(t *testing.T) {
	// Heavily skewed insertions all target the same cell; with sharing
	// enabled the index node must delegate storage segments, bounding the
	// peak per-node storage (the §4.2 hotspot defence).
	const quota = 25
	shared, _ := newSystem(t, 300, 73, WithWorkloadSharing(quota))
	plain, _ := newSystem(t, 300, 73)

	src1 := rng.New(74)
	src2 := rng.New(74)
	const n = 400
	for i := 0; i < n; i++ {
		// All events nearly identical: one hot cell.
		e := event.New(0.8+src1.Float64()*0.001, 0.5, 0.2)
		e.Seq = uint64(i + 1)
		if err := shared.Insert(src1.Intn(300), e); err != nil {
			t.Fatal(err)
		}
		e2 := event.New(0.8+src2.Float64()*0.001, 0.5, 0.2)
		e2.Seq = uint64(i + 1)
		if err := plain.Insert(src2.Intn(300), e2); err != nil {
			t.Fatal(err)
		}
	}

	if shared.Delegations() == 0 {
		t.Fatal("sharing enabled but no delegations happened")
	}
	if plain.Delegations() != 0 {
		t.Fatal("sharing disabled but delegations happened")
	}

	maxStore := func(s *System) int {
		m := 0
		for _, l := range s.StorageLoad() {
			if l > m {
				m = l
			}
		}
		return m
	}
	ms, mp := maxStore(shared), maxStore(plain)
	if mp != n {
		t.Fatalf("without sharing the hot node should hold all %d events, got %d", n, mp)
	}
	// With sharing, a node holds at most the quota per hot cell plus
	// whatever other cells it happens to own.
	if ms > 2*quota {
		t.Errorf("sharing left peak storage at %d, want ≤ %d", ms, 2*quota)
	}

	// Queries still find everything across the delegated segments.
	got, err := shared.Query(10, event.NewQuery(event.Span(0.8, 0.81), event.Span(0.5, 0.5), event.Span(0.2, 0.2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Errorf("after sharing, query found %d of %d events", len(got), n)
	}
}

func TestDelegationTrafficIsAccounted(t *testing.T) {
	s, net := newSystem(t, 300, 75, WithWorkloadSharing(10))
	src := rng.New(76)
	for i := 0; i < 100; i++ {
		if err := s.Insert(src.Intn(300), event.New(0.9, 0.5, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Delegations() == 0 {
		t.Fatal("expected delegations")
	}
	if net.Snapshot().Messages[network.KindControl] == 0 {
		t.Error("delegations must cost control messages")
	}
}

func TestStatsSnapshot(t *testing.T) {
	s, _ := newSystem(t, 300, 140, WithReplication(), WithWorkloadSharing(10))
	src := rng.New(141)
	const n = 60
	for i := 0; i < n; i++ {
		e := event.New(0.9, 0.5, 0.1) // one hot cell to force delegations
		e.Seq = uint64(i + 1)
		if err := s.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Subscribe(3, event.NewQuery(event.Span(0.8, 1), event.Unspecified(), event.Unspecified())); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode(7); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Pools != 3 || st.CellsPerPool != 100 {
		t.Errorf("structure stats = %+v", st)
	}
	if st.StoredEvents != n {
		t.Errorf("StoredEvents = %d, want %d", st.StoredEvents, n)
	}
	if st.MirroredEvents != n {
		t.Errorf("MirroredEvents = %d, want %d", st.MirroredEvents, n)
	}
	if st.Delegations == 0 || st.Segments <= 1 {
		t.Errorf("sharing stats = %+v", st)
	}
	if st.FailedNodes != 1 {
		t.Errorf("FailedNodes = %d", st.FailedNodes)
	}
	if st.Subscriptions != 1 {
		t.Errorf("Subscriptions = %d", st.Subscriptions)
	}
	if st.IndexNodes <= 0 || st.IndexNodes > 300 {
		t.Errorf("IndexNodes = %d", st.IndexNodes)
	}
}
