package node

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dcs/dcstest"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// repairFixture is an actor universe loaded through Preload (clock at
// zero), ready for crash scripts.
type repairFixture struct {
	layout *field.Layout
	sched  *sim.Scheduler
	net    *network.Network
	router *gpsr.Router
	engine *Engine
	events []event.Event
}

func newRepairFixture(t testing.TB, n, nEvents int, seed int64, opts ...Option) *repairFixture {
	t.Helper()
	src := rng.New(seed)
	layout, err := field.Generate(field.DefaultSpec(n), src.Fork("layout"))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	net := network.New(layout)
	router := gpsr.New(layout)
	eng, err := NewEngine(net, router, sched, 3, src.Fork("system"), nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f := &repairFixture{layout: layout, sched: sched, net: net, router: router, engine: eng}
	evSrc := src.Fork("events")
	for i := 0; i < nEvents; i++ {
		e := event.New(evSrc.Float64(), evSrc.Float64(), evSrc.Float64())
		e.Seq = uint64(i + 1)
		if err := eng.Preload(evSrc.Intn(n), e); err != nil {
			t.Fatal(err)
		}
		f.events = append(f.events, e)
	}
	return f
}

func (f *repairFixture) mostLoaded() int {
	victim, max := -1, 0
	for i, l := range f.engine.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	return victim
}

// crash tears the victim down the way the chaos engine does after
// detection: routing, radio, then the message-driven repair.
func (f *repairFixture) crash(t testing.TB, victim int) {
	t.Helper()
	// Leaves the splitter memo warm, so the check after the next grant
	// catches an invalidation that did not happen.
	if err := f.engine.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	f.router.Exclude(victim)
	f.net.FailNode(victim)
	if err := f.engine.FailNode(victim); err != nil {
		t.Fatal(err)
	}
}

// recover brings a node back at every layer, empty.
func (f *repairFixture) recover(t testing.TB, id int) {
	t.Helper()
	f.router.Restore(id)
	f.net.RecoverNode(id)
	f.engine.RecoverNode(id)
	if err := f.engine.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// holders snapshots the engine's cell → index node table.
func (f *repairFixture) holders() map[pool.CellID]int {
	out := map[pool.CellID]int{}
	for _, p := range f.engine.Pools() {
		for _, c := range p.Cells() {
			out[c] = f.engine.IndexNode(c)
		}
	}
	return out
}

// drain runs the scheduler dry, checking the splitter memo after every
// event that changed a holder — every re-election grant — and returns
// how many did.
func (f *repairFixture) drain(t testing.TB) (grants int) {
	t.Helper()
	before := f.holders()
	for f.sched.Step() {
		if now := f.holders(); !maps.Equal(before, now) {
			grants++
			if err := f.engine.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
			before = now
		}
	}
	return grants
}

func (f *repairFixture) alive(from int) int {
	for i := 0; i < f.layout.N(); i++ {
		id := (from + i) % f.layout.N()
		if !f.engine.Failed(id) {
			return id
		}
	}
	return -1
}

// fullQuery covers the whole attribute space: every pool cell is
// relevant, so its completeness fraction tracks the repair directly.
func fullQuery() event.Query {
	r := event.Range{L: 0, U: 1}
	return event.NewQuery(r, r, r)
}

// runQuery issues one query and steps the scheduler just until it
// completes — repair exchanges in flight keep progressing underneath,
// which is exactly the interleaving under test.
func (f *repairFixture) runQuery(t *testing.T, sink int, q event.Query) ([]event.Event, dcs.Completeness) {
	t.Helper()
	var (
		results []event.Event
		comp    dcs.Completeness
		done    bool
	)
	err := f.engine.QueryWithReport(sink, q, func(r []event.Event, c dcs.Completeness, _ time.Duration) {
		results, comp, done = r, c, true
	})
	if err != nil {
		t.Fatal(err)
	}
	for !done {
		if !f.sched.Step() {
			t.Fatal("scheduler drained before the query completed")
		}
	}
	return results, comp
}

// TestRepairCompletenessMonotone is the in-flight-transfer property:
// once the last restore transfer has started, successive queries must
// see a monotonically non-decreasing result count and completeness
// fraction — partial state is served and never rolled back — with at
// least one genuinely degraded (fraction < 1) sample on the way, and
// full recall plus completeness exactly 1.0 once the repair converges.
func TestRepairCompletenessMonotone(t *testing.T) {
	f := newRepairFixture(t, 60, 6000, 31, WithReplication())

	// A first-generation crash re-elects each cell onto its own mirror —
	// a local adoption with no data in flight. The hop-by-hop pull
	// transfer under test needs a second generation: the first victim
	// recovers (empty) and the node now holding its restored data
	// crashes, so the recovered node — again closest to the cell centres
	// — wins re-election with an empty store and must pull the mirrored
	// copy across the radio.
	first := f.mostLoaded()
	f.crash(t, first)
	if f.drain(t) == 0 {
		t.Fatal("no re-election was granted for the first victim")
	}
	f.recover(t, first)
	victim := f.mostLoaded()
	f.crash(t, victim)
	sink := f.alive(victim + 1)

	type sample struct {
		results int
		frac    float64
		xfers   int // transfers in flight when the query was issued
	}
	var samples []sample
	for round := 0; round < 300 && f.engine.RepairsInFlight() > 0; round++ {
		xfers := len(f.engine.restores)
		results, comp := f.runQuery(t, sink, fullQuery())
		samples = append(samples, sample{results: len(results), frac: comp.Fraction(), xfers: xfers})
	}
	if f.engine.RepairsInFlight() != 0 {
		t.Fatal("repair never converged")
	}
	f.sched.Run()
	finalRes, finalComp := f.runQuery(t, sink, fullQuery())

	// The window must actually have been observed mid-transfer.
	inWindow := 0
	for _, s := range samples {
		if s.xfers > 0 {
			inWindow++
		}
	}
	if inWindow < 2 {
		t.Fatalf("only %d queries sampled the transfer window (samples: %+v)", inWindow, samples)
	}

	// Monotonicity holds from the moment the transfer set stops growing
	// (before that, each newly granted cell trades its complete mirror
	// copy for a partial restore — the measured dip).
	start := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].xfers > samples[i-1].xfers {
			start = i
		}
	}
	sawDip := false
	for i := start; i < len(samples); i++ {
		if samples[i].frac < 1 {
			sawDip = true
		}
		if i > start {
			if samples[i].results < samples[i-1].results {
				t.Errorf("result count regressed mid-transfer: %d after %d (sample %d)",
					samples[i].results, samples[i-1].results, i)
			}
			if samples[i].frac < samples[i-1].frac {
				t.Errorf("completeness regressed mid-transfer: %.4f after %.4f (sample %d)",
					samples[i].frac, samples[i-1].frac, i)
			}
		}
	}
	if !sawDip {
		t.Error("no degraded sample observed: transfers never dipped completeness")
	}
	if finalComp.Fraction() != 1 || !finalComp.Complete() {
		t.Errorf("post-convergence completeness %.4f, want 1", finalComp.Fraction())
	}
	if len(finalRes) != len(f.events) {
		t.Errorf("post-convergence recall %d/%d events", len(finalRes), len(f.events))
	}
	if len(f.engine.restores) != 0 {
		t.Errorf("%d cells still restoring after convergence", len(f.engine.restores))
	}
}

// TestRepairMessageDeterminism pins reproducibility of the repair
// protocol itself: two universes built from the same seed, crashed the
// same way, must spend byte-identical repair traffic (per-kind message
// and byte counters), record identical repair latencies, and converge
// on identical holder maps and store fingerprints.
func TestRepairMessageDeterminism(t *testing.T) {
	type outcome struct {
		counters network.Counters
		latency  []int64
		holders  map[string]int
		stores   map[int][]uint64
	}
	run := func() outcome {
		f := newRepairFixture(t, 100, 1200, 77, WithReplication())
		victim := f.mostLoaded()
		before := f.net.Snapshot()
		f.crash(t, victim)
		f.sched.Run()
		h := f.engine.RepairLatency()
		holders := map[string]int{}
		for c, n := range f.holders() {
			holders[c.String()] = n
		}
		checkStores(t, f.engine)
		stores := map[int][]uint64{}
		f.engine.EachSegment(func(_ pool.Key, node int, events []event.Event) {
			for _, e := range events {
				stores[node] = append(stores[node], e.Seq)
			}
		})
		for _, seqs := range stores {
			slices.Sort(seqs)
		}
		return outcome{
			counters: f.net.Diff(before),
			latency:  []int64{int64(h.Total()), h.Min(), h.Max()},
			holders:  holders,
			stores:   stores,
		}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Errorf("repair traffic diverges at fixed seed:\n%+v\n%+v", a.counters, b.counters)
	}
	if !reflect.DeepEqual(a.latency, b.latency) {
		t.Errorf("repair latency diverges: %v vs %v", a.latency, b.latency)
	}
	if !reflect.DeepEqual(a.holders, b.holders) {
		t.Error("post-repair holder maps diverge")
	}
	if !reflect.DeepEqual(a.stores, b.stores) {
		t.Error("post-repair stores diverge")
	}
	if a.counters.Messages[network.KindControl] == 0 {
		t.Error("no control traffic recorded: repair ran for free")
	}
}

// TestRepairSurvivesCascade crashes the repair initiator's best
// candidate mid-repair and verifies the system still converges: stalled
// cells are re-planned by the second FailNode, no operation hangs, and
// queries come back complete.
func TestRepairSurvivesCascade(t *testing.T) {
	f := newRepairFixture(t, 100, 1200, 9, WithReplication())
	victim := f.mostLoaded()
	f.crash(t, victim)
	// Let the repair start but not finish, then kill a second node —
	// preferring one that is now a repair participant (the node closest
	// to the victim, i.e. the likely initiator).
	for i := 0; i < 50 && f.engine.RepairsInFlight() > 0; i++ {
		f.sched.Step()
	}
	second := f.alive(victim + 1)
	f.crash(t, second)
	if f.drain(t) == 0 {
		t.Fatal("no re-election was granted; the cascade repaired nothing")
	}
	if got := f.engine.RepairsInFlight(); got != 0 {
		t.Fatalf("%d repairs still in flight after full drain", got)
	}
	sink := f.alive(victim + 2)
	_, comp := f.runQuery(t, sink, fullQuery())
	if !comp.Complete() {
		t.Errorf("queries degraded after cascade repair: %d/%d cells",
			comp.CellsReached, comp.CellsTotal)
	}
	if cells := f.engine.Orphaned(); len(cells) > 0 {
		t.Errorf("cells %v still held by dead nodes", cells)
	}
}

// TestRepairAbortsWhenPartnersDie kills the counterparties of in-flight
// repair exchanges — every transfer source and every election candidate
// — while their packets are still on the air. The aborts must be clean:
// no task leaks, no restore left in flight, the replanned
// repair converges, and every surviving cell is served by a live
// holder. Data genuinely lost (a mirror dying mid-pull) is allowed if the
// answer says so; phantom data and hangs are not.
func TestRepairAbortsWhenPartnersDie(t *testing.T) {
	f := newRepairFixture(t, 60, 6000, 31, WithReplication())

	// Second-generation crash: the recovered first victim wins re-election
	// with an empty store, so real pull transfers are in flight (a first
	// crash alone repairs by local mirror adoption — nothing to abort).
	first := f.mostLoaded()
	f.crash(t, first)
	if f.drain(t) == 0 {
		t.Fatal("no re-election was granted for the first victim")
	}
	f.recover(t, first)
	victim := f.mostLoaded()
	f.crash(t, victim)
	for i := 0; i < 10000 && len(f.engine.restores)+len(f.engine.rehomes) == 0; i++ {
		f.sched.Step()
	}
	if len(f.engine.restores)+len(f.engine.rehomes) == 0 {
		t.Fatal("no pull transfer ever started; scenario lost its premise")
	}

	parts := map[int]bool{}
	for _, xs := range []map[pool.Key]*xferTask{f.engine.restores, f.engine.rehomes} {
		for _, x := range xs {
			parts[x.From] = true
		}
	}
	for _, el := range f.engine.elects {
		parts[el.To] = true
	}
	for id := range parts {
		if !f.engine.Failed(id) {
			f.crash(t, id)
		}
	}
	f.drain(t)

	if got := f.engine.RepairsInFlight(); got != 0 {
		t.Fatalf("%d repairs still in flight after aborts drained", got)
	}
	if n := len(f.engine.restores) + len(f.engine.rehomes); n != 0 {
		t.Fatalf("%d transfer tasks leaked past their abort", n)
	}
	if cells := f.engine.Orphaned(); len(cells) > 0 {
		t.Errorf("cells %v still held by dead nodes", cells)
	}
	sink := f.alive(victim + 1)
	results, comp := f.runQuery(t, sink, fullQuery())
	// Exactly the keys a cut-short restore or a lost copy left short are
	// reported unreached, and every other event comes back.
	short := 0
	for _, p := range f.engine.Pools() {
		for _, c := range p.Cells() {
			if !f.engine.Vouches(pool.Key{Dim: p.Dim, Cell: c}, false) {
				short++
			}
		}
	}
	if len(comp.Unreached) != short {
		t.Errorf("post-abort query: %d cells unreached, %d primaries not vouching", len(comp.Unreached), short)
	}
	returned := map[uint64]bool{}
	for _, e := range results {
		returned[e.Seq] = true
	}
	for _, e := range f.events {
		if f.engine.Vouches(f.keyOf(t, e), false) && !returned[e.Seq] {
			t.Errorf("event %d of a vouching key missing after the aborts", e.Seq)
		}
	}
	if len(results) > len(f.events) {
		t.Errorf("phantom data: %d results from %d stored events", len(results), len(f.events))
	}
	for _, err := range f.engine.Errors() {
		t.Errorf("non-degradable error: %v", err)
	}
}

// doubleCrash crashes the most-loaded node and, before a single repair
// exchange has run, its nearest alive neighbour, which is often the mirror
// of its cells: a key can lose both copies inside one repair window. It
// returns the universe drained.
func doubleCrash(t *testing.T, seed int64) *repairFixture {
	t.Helper()
	f := newRepairFixture(t, 150, 80, seed, WithReplication())
	first := f.mostLoaded()
	f.crash(t, first)
	f.crash(t, f.engine.NearestAlive(f.layout.Pos(first), -1))
	f.drain(t)
	checkStores(t, f.engine)
	return f
}

// keyOf returns the key an event is stored under; the fixture's events
// have no tied maxima, so the origin does not matter.
func (f *repairFixture) keyOf(t testing.TB, e event.Event) pool.Key {
	t.Helper()
	key, _, err := f.engine.Place(0, e)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRepairPlanAccountsForLoss: every preloaded event the store no longer
// holds after a double crash lies in a key the restore step left lost.
func TestRepairPlanAccountsForLoss(t *testing.T) {
	for seed := int64(4200); seed <= 4202; seed++ {
		f := doubleCrash(t, seed)
		held := map[uint64]bool{}
		f.engine.EachSegment(func(_ pool.Key, _ int, events []event.Event) {
			for _, e := range events {
				held[e.Seq] = true
			}
		})
		missing := 0
		for _, e := range f.events {
			if held[e.Seq] {
				continue
			}
			missing++
			if f.engine.Vouches(f.keyOf(t, e), false) {
				t.Errorf("seed %d: event %d is gone, but its key's primary vouches", seed, e.Seq)
			}
		}
		if missing == 0 {
			t.Errorf("seed %d: the double crash lost nothing; the scenario lost its premise", seed)
		}
		t.Logf("seed %d: %d of %d events lost with both copies", seed, missing, len(f.events))
	}
}

// TestDoubleCrashNeverOverreports point-queries every preloaded event after
// the double crash: an answer that misses its event must not be complete.
func TestDoubleCrashNeverOverreports(t *testing.T) {
	for seed := int64(4200); seed <= 4207; seed++ {
		f := doubleCrash(t, seed)
		sink := f.alive(0)
		over := 0
		for _, e := range f.events {
			got, comp := f.runQuery(t, sink, pointQueryFor(e))
			if comp.Complete() && !slices.ContainsFunc(got, func(g event.Event) bool { return g.Seq == e.Seq }) {
				over++
			}
		}
		if over > 0 {
			t.Errorf("seed %d: %d complete answers miss their event", seed, over)
		}
	}
}

// pointQueryFor is the exact-match query of one event.
func pointQueryFor(e event.Event) event.Query {
	rs := make([]event.Range, len(e.Values))
	for i, v := range e.Values {
		rs[i] = event.PointRange(v)
	}
	return event.NewQuery(rs...)
}

// TestAbortedRestoreStaysPartial loses the frames of a streaming restore,
// which cuts it short the way a lost packet does: the holder keeps the
// slice that landed, and a full-range query must not call that complete
// while the mirror still holds the rest.
func TestAbortedRestoreStaysPartial(t *testing.T) {
	cut := 0
	for seed := int64(4200); seed <= 4219; seed++ {
		f := newRepairFixture(t, 100, 1200, seed, WithReplication())
		// Second generation, so that the restores are pulls over the radio.
		first := f.mostLoaded()
		f.crash(t, first)
		f.drain(t)
		f.recover(t, first)
		f.crash(t, f.mostLoaded())
		var x *xferTask
		for i := 0; i < 10000 && x == nil && f.sched.Step(); i++ {
			// A chunk is on the air and another is still to come.
			for _, r := range f.engine.restores {
				if r.sendNext > 0 && r.sendNext < len(r.chunks) && (x == nil || keyLess(r.Key, x.Key)) {
					x = r
				}
			}
		}
		if x == nil {
			continue // the second victim inherited none of the first one's cells
		}
		cut++
		cancel := dcstest.Jam(f.net, x.To)
		for i := 0; i < 10000 && f.engine.restores[x.Key] == x && f.sched.Step(); i++ {
		}
		cancel()
		if f.engine.restores[x.Key] == x {
			t.Fatalf("seed %d: the jam did not cut the restore short", seed)
		}
		f.drain(t)
		checkStores(t, f.engine)
		if f.engine.Vouches(x.Key, false) {
			t.Errorf("seed %d: key %+v vouches after its restore was cut short", seed, x.Key)
		}
		got, comp := f.runQuery(t, f.alive(0), fullQuery())
		if comp.Complete() && len(got) != len(f.events) {
			t.Errorf("seed %d: complete answer holds %d of %d events", seed, len(got), len(f.events))
		}
	}
	if cut < 10 {
		t.Errorf("only %d of 20 seeds cut a restore short; the scenario lost its premise", cut)
	}
}

func keyLess(a, b pool.Key) bool {
	return a.Dim < b.Dim || a.Dim == b.Dim && (a.Cell.X < b.Cell.X || a.Cell.X == b.Cell.X && a.Cell.Y < b.Cell.Y)
}

// TestLostMirrorWriteLeavesMirrorBehind jams the mirror write of one radio
// insert, then crashes the event's holder: the restore comes from a mirror
// that never got the event, so a query over its key must not be complete.
func TestLostMirrorWriteLeavesMirrorBehind(t *testing.T) {
	f := newRepairFixture(t, 100, 300, 4200, WithReplication())
	e := event.New(0.91, 0.52, 0.13)
	e.Seq = 100000
	key := f.keyOf(t, e)
	index := f.engine.IndexNode(key.Cell)
	mirror := f.engine.Mirror(key)
	if mirror < 0 || mirror == index {
		t.Fatalf("key %+v has mirror %d, index %d", key, mirror, index)
	}
	// Detected by the index node itself, the event is stored at once; only
	// its mirror write crosses the radio, into the jam.
	cancel := dcstest.Jam(f.net, mirror)
	stored := false
	if err := f.engine.Insert(index, e, func() { stored = true }); err != nil {
		t.Fatal(err)
	}
	f.drain(t)
	cancel()
	if !stored {
		t.Fatal("the insert never landed")
	}
	if f.engine.Vouches(key, true) {
		t.Fatal("mirror vouches after its write was lost")
	}
	f.crash(t, index)
	f.drain(t)
	checkStores(t, f.engine)
	got, comp := f.runQuery(t, f.alive(index+1), pointQueryFor(e))
	if comp.Complete() {
		t.Errorf("complete answer over a key restored from a mirror behind it: %d events", len(got))
	}
}

// TestQueryDegradedDuringRehome crashes a node that mirrors cells but
// holds none: nothing re-elects and nothing is restored, and the mirror
// re-homes alone must make QueryDegraded true, as the churn table's
// Busy/Quiet split counts them.
func TestQueryDegradedDuringRehome(t *testing.T) {
	f := newRepairFixture(t, 100, 1200, 77, WithReplication())
	holders := map[int]bool{}
	for _, h := range f.holders() {
		holders[h] = true
	}
	victim := -1
	for _, key := range f.engine.MirrorKeys() {
		if m := f.engine.Mirror(key); m >= 0 && !holders[m] {
			victim = m
			break
		}
	}
	if victim < 0 {
		t.Fatal("every mirror is also an index node; scenario lost its premise")
	}
	f.crash(t, victim)
	if len(f.engine.elects) != 0 || len(f.engine.restores) != 0 || len(f.engine.rehomes) == 0 {
		t.Fatalf("in flight: %d elections, %d restores, %d re-homes; want re-homes only",
			len(f.engine.elects), len(f.engine.restores), len(f.engine.rehomes))
	}
	if !f.engine.QueryDegraded(fullQuery(), nil) {
		t.Error("QueryDegraded false with a mirror re-home in flight")
	}
	f.drain(t)
	if f.engine.QueryDegraded(fullQuery(), nil) {
		t.Error("QueryDegraded true after every re-home landed")
	}
}
