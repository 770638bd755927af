package dim

import (
	"sort"
	"strings"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// figure1Layout recreates a deployment whose k-d subdivision yields exactly
// the zone codes of the paper's Figure 1: {00, 010, 011, 100, 101, 110,
// 1110, 1111}. One node sits at the centre of each zone.
func figure1Layout(t testing.TB) *field.Layout {
	t.Helper()
	pts := []geo.Point{
		geo.Pt(25, 25),     // 00
		geo.Pt(12.5, 75),   // 010
		geo.Pt(37.5, 75),   // 011
		geo.Pt(62.5, 25),   // 100
		geo.Pt(87.5, 25),   // 101
		geo.Pt(62.5, 75),   // 110
		geo.Pt(87.5, 62.5), // 1110
		geo.Pt(87.5, 87.5), // 1111
	}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Connected() {
		t.Fatal("figure-1 layout must be connected")
	}
	return l
}

func figure1System(t testing.TB) (*System, *network.Network) {
	t.Helper()
	l := figure1Layout(t)
	net := network.New(l)
	s, err := New(net, gpsr.New(l), 3)
	if err != nil {
		t.Fatal(err)
	}
	return s, net
}

func zoneCodes(zones []Zone) []string {
	out := make([]string, len(zones))
	for i, z := range zones {
		out[i] = z.Code.String()
	}
	return out
}

// TestZoneTableFigure1 verifies that the zone construction over the
// Figure 1 deployment produces the paper's zone codes, each owned by the
// node inside it.
func TestZoneTableFigure1(t *testing.T) {
	s, _ := figure1System(t)
	got := zoneCodes(s.Zones())
	want := []string{"00", "010", "011", "100", "101", "110", "1110", "1111"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("zones = %v, want %v", got, want)
	}
	wantOwner := map[string]int{
		"00": 0, "010": 1, "011": 2, "100": 3, "101": 4, "110": 5, "1110": 6, "1111": 7,
	}
	for _, z := range s.Zones() {
		if z.Owner != wantOwner[z.Code.String()] {
			t.Errorf("zone %v owner = %d, want %d", z.Code, z.Owner, wantOwner[z.Code.String()])
		}
	}
}

func TestZonesTileField(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(30))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	s, err := New(net, gpsr.New(l), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every random point must fall in exactly one zone rect (half-open).
	src := rng.New(31)
	for trial := 0; trial < 500; trial++ {
		p := geo.Pt(src.Uniform(0, l.Side), src.Uniform(0, l.Side))
		count := 0
		for _, z := range s.Zones() {
			if z.Rect.Contains(p) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("point %v lies in %d zones", p, count)
		}
	}
	// Every node owns the zone containing it.
	for _, z := range s.Zones() {
		if z.Owner < 0 {
			t.Fatalf("zone %v unowned", z.Code)
		}
	}
	for i := 0; i < l.N(); i++ {
		found := false
		for _, z := range s.Zones() {
			if z.Rect.Contains(l.Pos(i)) {
				if z.Owner != i {
					t.Fatalf("node %d lies in zone %v owned by %d", i, z.Code, z.Owner)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d in no zone", i)
		}
	}
}

func TestZoneCountGrowsWithNetwork(t *testing.T) {
	var prev int
	for _, n := range []int{100, 300, 600} {
		l, err := field.Generate(field.DefaultSpec(n), rng.New(32))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(network.New(l), gpsr.New(l), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Zones()) < n {
			t.Errorf("n=%d: only %d zones; every node must be separated", n, len(s.Zones()))
		}
		if len(s.Zones()) <= prev {
			t.Errorf("zone count did not grow: %d after %d", len(s.Zones()), prev)
		}
		prev = len(s.Zones())
	}
}

// TestRelevantZonesPaperExample checks the §1 example: for the Figure 1
// network, Q = <[0.6,0.8],[0.6,0.65],[0.45,0.6]> involves zones 110, 1111
// and 1110.
func TestRelevantZonesPaperExample(t *testing.T) {
	s, _ := figure1System(t)
	q := event.NewQuery(event.Span(0.6, 0.8), event.Span(0.6, 0.65), event.Span(0.45, 0.6))
	got := zoneCodes(s.RelevantZones(q))
	sort.Strings(got)
	want := []string{"110", "1110", "1111"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("relevant zones = %v, want %v", got, want)
	}
}

// TestRelevantZonesPartialMatchExample checks the §1 partial-match
// example: Q = <*, [0.6,0.7], [0.4,0.6]> spans zones 010, 011, 110, 1110
// and 1111 — half the Figure 1 network.
func TestRelevantZonesPartialMatchExample(t *testing.T) {
	s, _ := figure1System(t)
	q := event.NewQuery(event.Unspecified(), event.Span(0.6, 0.7), event.Span(0.4, 0.6))
	got := zoneCodes(s.RelevantZones(q))
	sort.Strings(got)
	want := []string{"010", "011", "110", "1110", "1111"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("relevant zones = %v, want %v", got, want)
	}
}

func TestZoneOfMatchesValueRegion(t *testing.T) {
	s, _ := figure1System(t)
	tests := []struct {
		values []float64
		want   string
	}{
		{[]float64{0.7, 0.8, 0.2}, "110"},
		{[]float64{0.3, 0.3, 0.9}, "00"},
		{[]float64{0.8, 0.9, 0.9}, "1111"},
		{[]float64{0.6, 0.9, 0.9}, "1110"},
		{[]float64{0.1, 0.9, 0.1}, "010"},
	}
	for _, tt := range tests {
		if got := s.ZoneOf(tt.values).Code.String(); got != tt.want {
			t.Errorf("ZoneOf(%v) = %q, want %q", tt.values, got, tt.want)
		}
	}
}

func TestInsertStoresAtOwner(t *testing.T) {
	s, net := figure1System(t)
	e := event.New(0.7, 0.8, 0.2) // zone 110, owner node 5
	e.Seq = 9
	if err := s.Insert(0, e); err != nil {
		t.Fatal(err)
	}
	loads := s.StorageLoad()
	if loads[5] != 1 {
		t.Fatalf("storage loads = %v, want event at node 5", loads)
	}
	if net.Snapshot().Messages[network.KindInsert] == 0 {
		t.Error("insert generated no traffic")
	}
}

func TestInsertValidation(t *testing.T) {
	s, _ := figure1System(t)
	if err := s.Insert(0, event.New(1.2, 0.1, 0.1)); err == nil {
		t.Error("invalid event accepted")
	}
	if err := s.Insert(0, event.New(0.5, 0.5)); err == nil {
		t.Error("wrong dimensionality accepted")
	}
}

func TestQueryEndToEnd(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	s, err := New(net, gpsr.New(l), 3)
	if err != nil {
		t.Fatal(err)
	}

	src := rng.New(34)
	var all []event.Event
	for i := 0; i < 300; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		all = append(all, e)
		if err := s.Insert(src.Intn(l.N()), e); err != nil {
			t.Fatal(err)
		}
	}

	queries := []event.Query{
		event.NewQuery(event.Span(0.1, 0.4), event.Span(0.2, 0.6), event.Span(0, 1)),
		event.NewQuery(event.Unspecified(), event.Span(0.5, 0.7), event.Unspecified()),
		event.NewQuery(event.Span(0, 0.05), event.Span(0, 0.05), event.Span(0, 0.05)),
		event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1)),
	}
	for qi, q := range queries {
		got, err := s.Query(src.Intn(l.N()), q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := q.Rewrite().Filter(all)
		gotSeqs := seqSet(got)
		if len(gotSeqs) != len(got) {
			t.Fatalf("query %d returned duplicates", qi)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for _, w := range want {
			if !gotSeqs[w.Seq] {
				t.Fatalf("query %d missing event %d", qi, w.Seq)
			}
		}
	}
}

func seqSet(events []event.Event) map[uint64]bool {
	m := make(map[uint64]bool, len(events))
	for _, e := range events {
		m[e.Seq] = true
	}
	return m
}

func TestQueryValidation(t *testing.T) {
	s, _ := figure1System(t)
	if _, err := s.Query(0, event.NewQuery(event.Span(0.5, 0.1), event.Span(0, 1), event.Span(0, 1))); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := s.Query(0, event.NewQuery(event.Span(0, 1))); err == nil {
		t.Error("wrong dimensionality accepted")
	}
}

func TestWiderQueryVisitsMoreZones(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(network.New(l), gpsr.New(l), 3)
	if err != nil {
		t.Fatal(err)
	}
	narrow := event.NewQuery(event.Span(0.4, 0.45), event.Span(0.4, 0.45), event.Span(0.4, 0.45))
	wide := event.NewQuery(event.Span(0.1, 0.9), event.Span(0.1, 0.9), event.Span(0.1, 0.9))
	if n, w := len(s.RelevantZones(narrow)), len(s.RelevantZones(wide)); n >= w {
		t.Errorf("narrow query visits %d zones, wide %d", n, w)
	}
}

func TestUnspecifiedFirstDimensionHurtsDIM(t *testing.T) {
	// The paper's Figure 7(b) claim: an unspecified first attribute
	// prevents pruning at the tree's top levels, so 1@1-partial queries
	// touch more zones than 1@3-partial queries of the same shape.
	l, err := field.Generate(field.DefaultSpec(300), rng.New(36))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(network.New(l), gpsr.New(l), 3)
	if err != nil {
		t.Fatal(err)
	}
	at1 := event.NewQuery(event.Unspecified(), event.Span(0.2, 0.25), event.Span(0.2, 0.25))
	at3 := event.NewQuery(event.Span(0.2, 0.25), event.Span(0.2, 0.25), event.Unspecified())
	if n1, n3 := len(s.RelevantZones(at1)), len(s.RelevantZones(at3)); n1 <= n3 {
		t.Errorf("1@1-partial visits %d zones, 1@3-partial %d; expected 1@1 > 1@3", n1, n3)
	}
}

func TestDisseminationString(t *testing.T) {
	if ChainDissemination.String() != "chain" || SplitDissemination.String() != "split" {
		t.Error("dissemination names wrong")
	}
	if Dissemination(9).String() == "" {
		t.Error("unknown dissemination has empty String")
	}
}

func TestSplitDisseminationSameResults(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	router := gpsr.New(l)
	chain, err := New(network.New(l), router, 3)
	if err != nil {
		t.Fatal(err)
	}
	split, err := New(network.New(l), router, 3, WithDissemination(SplitDissemination))
	if err != nil {
		t.Fatal(err)
	}

	src := rng.New(38)
	for i := 0; i < 300; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		if err := chain.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
		if err := split.Insert(0, e); err != nil {
			t.Fatal(err)
		}
	}

	queries := []event.Query{
		event.NewQuery(event.Span(0.1, 0.4), event.Span(0.2, 0.6), event.Span(0, 1)),
		event.NewQuery(event.Unspecified(), event.Span(0.5, 0.7), event.Unspecified()),
		event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1)),
		event.NewQuery(event.Span(0.42, 0.43), event.Span(0.1, 0.2), event.Span(0.9, 0.95)),
	}
	for qi, q := range queries {
		a, err := chain.Query(5, q)
		if err != nil {
			t.Fatalf("chain query %d: %v", qi, err)
		}
		b, err := split.Query(5, q)
		if err != nil {
			t.Fatalf("split query %d: %v", qi, err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: chain %d results, split %d", qi, len(a), len(b))
		}
		bs := seqSet(b)
		for _, e := range a {
			if !bs[e.Seq] {
				t.Fatalf("query %d: split missing event %d", qi, e.Seq)
			}
		}
	}
}

func TestSplitDisseminationCostComparable(t *testing.T) {
	// Chain and split are different multicast shapes over the same zone
	// set; neither dominates universally, but they must stay within a
	// small factor of each other on a typical partial-match query.
	l, err := field.Generate(field.DefaultSpec(600), rng.New(39))
	if err != nil {
		t.Fatal(err)
	}
	router := gpsr.New(l)
	chainNet, splitNet := network.New(l), network.New(l)
	chain, err := New(chainNet, router, 3)
	if err != nil {
		t.Fatal(err)
	}
	split, err := New(splitNet, router, 3, WithDissemination(SplitDissemination))
	if err != nil {
		t.Fatal(err)
	}

	q := event.NewQuery(event.Unspecified(), event.Span(0.2, 0.3), event.Span(0.2, 0.3))
	if _, err := chain.Query(0, q); err != nil {
		t.Fatal(err)
	}
	if _, err := split.Query(0, q); err != nil {
		t.Fatal(err)
	}
	cc := chainNet.Snapshot().Messages[network.KindQuery]
	sc := splitNet.Snapshot().Messages[network.KindQuery]
	if cc == 0 || sc == 0 {
		t.Fatal("queries generated no traffic")
	}
	ratio := float64(sc) / float64(cc)
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("dissemination costs diverge: chain %d, split %d", cc, sc)
	}
}

// Zones returns the zone table, sorted by code (in-order tree traversal),
// reproducing the paper's Figure 1(b) layout. The slice is owned by the
// system.
func (s *System) Zones() []Zone { return s.zones }
