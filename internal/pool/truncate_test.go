package pool

import (
	"slices"
	"testing"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dcs/dcstest"
	"pooldcs/internal/event"
	"pooldcs/internal/rng"
)

// The reply buffer gathers a query's matches before the legs that carry
// them have been paid for, so every leg that can be lost must take its
// matches back out. Each test below loses exactly one such leg while the
// query leg before it is delivered, and fails if the truncation for that
// leg is removed.

// seqsOf collects the Seq of every event in the given slices.
func seqsOf(lists ...[]event.Event) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, evs := range lists {
		for _, e := range evs {
			out[e.Seq] = true
		}
	}
	return out
}

// cellSeqs collects the Seq of every event stored for one cell.
func cellSeqs(s *System, key Key) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, seg := range s.Segments(key) {
		for _, e := range seg.Rows.AppendTo(nil) {
			out[e.Seq] = true
		}
	}
	return out
}

// checkNoPhantoms fails when the answer holds an event of a cell the
// report lists as unreached.
func checkNoPhantoms(t testing.TB, s *System, got []event.Event, comp dcs.Completeness) {
	t.Helper()
	unreached := make(map[string]bool, len(comp.Unreached))
	for _, l := range comp.Unreached {
		unreached[l] = true
	}
	home := make(map[uint64]Key)
	for i, segs := range s.allSegs() {
		key := s.keyAt(i)
		for _, seg := range segs {
			for _, e := range seg.Rows.AppendTo(nil) {
				home[e.Seq] = key
			}
		}
	}
	for _, e := range got {
		if key := home[e.Seq]; unreached[CellLabel(key.Dim, key.Cell)] {
			t.Errorf("event %d returned from cell %s, which the report lists as unreached", e.Seq, CellLabel(key.Dim, key.Cell))
		}
	}
}

func listed(comp dcs.Completeness, label string) bool {
	for _, l := range comp.Unreached {
		if l == label {
			return true
		}
	}
	return false
}

func TestLostCellReplyContributesNothing(t *testing.T) {
	s, net, router := newUniverse(t, 300, 590)
	loadEvents(t, s, 600, 591)

	// A loaded cell, a sink that is its own splitter for the cell's Pool
	// (so the cell→splitter reply is the only reply leg in play), and a
	// relay only that reply uses.
	var key Key
	sink, relay := -1, -1
search:
	for _, p := range s.Pools() {
		for _, c := range p.Cells() {
			k := Key{Dim: p.Dim, Cell: c}
			if len(cellSeqs(s, k)) == 0 {
				continue
			}
			for _, c2 := range p.Cells() {
				cand := s.IndexNode(c2)
				if cand == s.IndexNode(c) || s.SplitterFor(p, cand) != cand {
					continue
				}
				if r := dcstest.OneWayRelay(t, router, s.IndexNode(c), cand); r >= 0 {
					key, sink, relay = k, cand, r
					break search
				}
			}
		}
	}
	if relay < 0 {
		t.Fatal("no loaded cell with a one-way reply relay in this deployment")
	}
	label := CellLabel(key.Dim, key.Cell)
	own := cellSeqs(s, key)

	got, comp, err := s.QueryWithReport(sink, fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	before := seqsOf(got)
	for seq := range own {
		if !before[seq] {
			t.Fatalf("fault-free query misses event %d of %s", seq, label)
		}
	}
	if !comp.Complete() {
		t.Fatalf("fault-free query incomplete: %+v", comp)
	}

	defer dcstest.Jam(net, relay)()
	got, comp, err = s.QueryWithReport(sink, fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !listed(comp, label) {
		t.Errorf("%s lost its reply twice but is not listed unreached: %v", label, comp.Unreached)
	}
	if comp.Retries == 0 {
		t.Error("the lost reply was not retried")
	}
	for _, e := range got {
		if own[e.Seq] {
			t.Errorf("event %d of %s returned although the cell's reply never reached the splitter", e.Seq, label)
		}
	}
	checkNoPhantoms(t, s, got, comp)
	if comp.CellsReached+len(comp.Unreached) != comp.CellsTotal {
		t.Errorf("reached %d + unreached %d != total %d", comp.CellsReached, len(comp.Unreached), comp.CellsTotal)
	}
}

func TestLostDelegateReplyContributesNothing(t *testing.T) {
	const quota = 10
	s, net, _ := newUniverse(t, 300, 592, WithWorkloadSharing(quota))
	src := rng.New(593)
	for i := 0; i < 3*quota; i++ {
		e := event.New(0.9+src.Float64()*0.001, 0.5, 0.1)
		e.Seq = uint64(i + 1)
		if err := s.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
	}
	var key Key
	for i, segs := range s.allSegs() {
		k := s.keyAt(i)
		if len(segs) > 1 {
			key = k
		}
	}
	segs := s.Segments(key)
	if len(segs) < 2 {
		t.Fatal("no delegated segment")
	}
	// The index node asks for itself: it is its own sink and splitter, so
	// the only radio legs of the cell are the index↔delegate exchanges.
	index, delegate := s.IndexNode(key.Cell), segs[1].Node
	if segs[0].Node != index || delegate == index {
		t.Fatalf("segments at %d,%d for index %d", segs[0].Node, delegate, index)
	}
	lost := seqsOf(segs[1].Rows.AppendTo(nil))
	kept := seqsOf(segs[0].Rows.AppendTo(nil))
	for _, seg := range segs[2:] {
		if seg.Node == delegate {
			t.Fatalf("delegate %d holds two segments", delegate)
		}
		for seq := range seqsOf(seg.Rows.AppendTo(nil)) {
			kept[seq] = true
		}
	}
	q := event.NewQuery(event.Span(0.9, 0.91), event.PointRange(0.5), event.PointRange(0.1))

	// A 90% burst at the delegate decides each frame by (link direction,
	// frame index): look for a burst that delivers the index's query and
	// drops all dcs.MaxRetransmissions frames of the delegate's reply.
	for seed := int64(1); seed <= 64; seed++ {
		dropsIndex, dropsDelegate := net.NodeDrops(index), net.NodeDrops(delegate)
		cancel := dcstest.BurstAt(net, delegate, 0.9, seed)
		got, comp, err := s.QueryWithReport(index, q)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if net.NodeDrops(index) != dropsIndex || net.NodeDrops(delegate) != dropsDelegate+dcs.MaxRetransmissions {
			continue // query leg dropped too, or nothing dropped
		}
		have := seqsOf(got)
		for seq := range lost {
			if have[seq] {
				t.Errorf("event %d returned although the delegate's reply was lost", seq)
			}
		}
		for seq := range kept {
			if !have[seq] {
				t.Errorf("event %d of an unaffected segment missing", seq)
			}
		}
		// The cell served what came back, and says it is partial.
		if !listed(comp, CellLabel(key.Dim, key.Cell)) || comp.CellsReached != 0 {
			t.Errorf("cell reported reached over a lost delegate slice: %+v", comp)
		}
		return
	}
	t.Fatal("no burst seed in 1..64 dropped only the delegate's reply")
}

// TestJammedRestoreLeavesKeyLost jams the one transfer a zero-time restore
// has: its events are gone with the primary, so the key is lost and its
// cell never again counts as reached.
func TestJammedRestoreLeavesKeyLost(t *testing.T) {
	s, net, router := newUniverse(t, 300, 598, WithReplication())
	loadEvents(t, s, 600, 599)
	var key Key
	for i, segs, most := 0, s.allSegs(), 0; i < len(segs); i++ {
		if len(segs[i]) > 0 && segs[i][0].Rows.Len() > most {
			key, most = s.keyAt(i), segs[i][0].Rows.Len()
		}
	}
	// The first crash re-elects the cell onto its mirror, which adopts its
	// own copy; the first victim comes back empty and, closest to the
	// cell's centre, takes the cell back when the heir dies, pulling the
	// copy from the re-homed mirror — through the jam.
	first := s.IndexNode(key.Cell)
	crash(t, s, net, router, first)
	router.Restore(first)
	net.RecoverNode(first)
	s.RecoverNode(first)
	heir, mirror := s.IndexNode(key.Cell), s.Mirror(key)
	cancel := dcstest.Jam(net, mirror)
	crash(t, s, net, router, heir)
	cancel()
	if s.IndexNode(key.Cell) != first || mirror == first || mirror < 0 {
		t.Fatalf("cell held by %d with mirror %d; want the first victim %d pulling from another node", s.IndexNode(key.Cell), mirror, first)
	}
	if s.Vouches(key, false) {
		t.Error("key's primary vouches after its restore transfer was jammed")
	}
	if _, comp, err := s.QueryWithReport(pickAlive(s), fullDomain()); err != nil || !listed(comp, CellLabel(key.Dim, key.Cell)) {
		t.Errorf("lost cell not reported unreached: %v, %+v", err, comp)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLostAggregateReplyDemotesServedCells(t *testing.T) {
	s, net, router := newUniverse(t, 300, 594)
	loadEvents(t, s, 600, 595)
	// Relevant to Pool 1 alone: V1 is always the greatest value.
	q := event.NewQuery(event.Span(0.5, 1), event.Span(0, 0.4), event.Span(0, 0.4))
	rel := s.RelevantCells(q)
	if len(rel) != 1 || len(rel[1]) == 0 {
		t.Fatalf("query should address Pool 1 only, got %v", rel)
	}
	p := s.Pools()[0]
	cells := rel[1]

	// A sink whose splitter→sink reply crosses a relay that neither the
	// sink→splitter leg nor any splitter↔cell leg uses.
	sink, relay := -1, -1
search:
	for cand := 0; cand < net.Layout().N(); cand++ {
		splitter := s.SplitterFor(p, cand)
		if splitter == cand {
			continue
		}
		r := dcstest.OneWayRelay(t, router, splitter, cand)
		if r < 0 {
			continue
		}
		for _, c := range cells {
			if idx := s.IndexNode(c); idx != splitter &&
				(slices.Contains(dcstest.Route(t, router, splitter, idx), r) || slices.Contains(dcstest.Route(t, router, idx, splitter), r)) {
				continue search
			}
		}
		sink, relay = cand, r
		break
	}
	if relay < 0 {
		t.Fatal("no sink with a one-way aggregate-reply relay in this deployment")
	}

	withMatches := 0
	for _, c := range cells {
		for _, seg := range s.Segments(Key{Dim: 1, Cell: c}) {
			if len(q.Filter(seg.Rows.AppendTo(nil))) > 0 {
				withMatches++
				break
			}
		}
	}
	if withMatches == 0 || withMatches == len(cells) {
		t.Fatalf("want both matching and silent cells, got %d of %d matching", withMatches, len(cells))
	}
	if got, comp, err := s.QueryWithReport(sink, q); err != nil || len(got) == 0 || !comp.Complete() {
		t.Fatalf("fault-free query: %d events, %+v, %v", len(got), comp, err)
	}

	defer dcstest.Jam(net, relay)()
	got, comp, err := s.QueryWithReport(sink, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("%d events returned although the splitter's aggregate reply never reached the sink", len(got))
	}
	if len(comp.Unreached) != withMatches {
		t.Errorf("%d cells demoted, want the %d that had matches: %v", len(comp.Unreached), withMatches, comp.Unreached)
	}
	if want := len(cells) - withMatches; comp.CellsReached != want {
		t.Errorf("%d cells reached, want the %d silent ones", comp.CellsReached, want)
	}
	checkNoPhantoms(t, s, got, comp)
}

func TestLostMirrorReplyContributesNothing(t *testing.T) {
	s, net, router := newUniverse(t, 300, 596, WithReplication())
	loadEvents(t, s, 600, 597)

	// An undetected failure: the victim is off the air and routed around,
	// but Pool still lists it as index node, so its cells are read at
	// their mirrors.
	var victim int
	for _, p := range s.Pools() {
		for _, c := range p.Cells() {
			if len(s.MirrorCopy(Key{Dim: p.Dim, Cell: c})) > 0 {
				victim = s.IndexNode(c)
			}
		}
	}
	router.Exclude(victim)
	net.FailNode(victim)

	var key Key
	sink, mirror, relay := -1, -1, -1
search:
	for _, p := range s.Pools() {
		for _, c := range p.Cells() {
			k := Key{Dim: p.Dim, Cell: c}
			m, ok := s.MirrorFor(k, victim)
			if s.IndexNode(c) != victim || !ok || len(s.MirrorCopy(k)) == 0 {
				continue
			}
			for _, c2 := range p.Cells() {
				cand := s.IndexNode(c2)
				if cand == victim || cand == m || s.SplitterFor(p, cand) != cand {
					continue
				}
				if r := dcstest.OneWayRelay(t, router, m, cand); r >= 0 {
					key, sink, mirror, relay = k, cand, m, r
					break search
				}
			}
		}
	}
	if relay < 0 {
		t.Fatal("no mirrored cell of the victim with a one-way reply relay")
	}
	label := CellLabel(key.Dim, key.Cell)
	own := seqsOf(s.MirrorCopy(key))

	got, comp, err := s.QueryWithReport(sink, fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	served := seqsOf(got)
	for seq := range own {
		if !served[seq] {
			t.Fatalf("mirror %d did not serve event %d of %s before the jam", mirror, seq, label)
		}
	}
	if listed(comp, label) {
		t.Fatalf("%s unreached before the jam: %v", label, comp.Unreached)
	}

	defer dcstest.Jam(net, relay)()
	got, comp, err = s.QueryWithReport(sink, fullDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !listed(comp, label) {
		t.Errorf("%s lost its mirror's reply twice but is not listed unreached: %v", label, comp.Unreached)
	}
	for _, e := range got {
		if own[e.Seq] {
			t.Errorf("event %d of %s returned although the mirror's reply never reached the splitter", e.Seq, label)
		}
	}
}
