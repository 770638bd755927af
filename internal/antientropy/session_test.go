package antientropy

import (
	"testing"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/sim"
)

// memStore is an in-memory Store for driving the session machinery
// without a pool or GHT behind it. Its fingerprint is recounted from its
// events on every call.
type memStore struct {
	node int
	evs  []event.Event
}

func (m *memStore) Node() int { return m.node }

func (m *memStore) Fingerprint() event.Fingerprint {
	var f event.Fingerprint
	for _, e := range m.evs {
		f.Add(e.Seq)
	}
	return f
}

func (m *memStore) AppendDigests(buf []uint64) []uint64 {
	for _, e := range m.evs {
		buf = append(buf, Digest(e))
	}
	return buf
}

func (m *memStore) Fetch(digests []uint64, buf []event.Event) []event.Event {
	for _, d := range digests {
		for _, e := range m.evs {
			if Digest(e) == d {
				buf = append(buf, e)
				break
			}
		}
	}
	return buf
}

func (m *memStore) Insert(e event.Event) { m.evs = append(m.evs, e) }

func (m *memStore) Len() int { return len(m.evs) }

// memoStore is a memStore that keeps its fingerprint as a pool cell copy
// does: counted once from the events it starts with, then folded in by
// every Insert.
type memoStore struct {
	memStore
	print event.Fingerprint
}

func newMemoStore(node int, evs []event.Event) *memoStore {
	m := &memoStore{memStore: memStore{node: node, evs: evs}}
	m.print = m.memStore.Fingerprint()
	return m
}

func (m *memoStore) Fingerprint() event.Fingerprint { return m.print }

func (m *memoStore) Insert(e event.Event) {
	m.memStore.Insert(e)
	m.print.Add(e.Seq)
}

type memSource struct{ pairs []Pair }

func (s *memSource) ReplicaPairs() []Pair { return s.pairs }

// sessionUniverse is a 6-node line: every node reaches its neighbours
// only, so cross-line sessions pay multi-hop unicast costs.
func sessionUniverse(t *testing.T) (*sim.Scheduler, *network.Network, *gpsr.Router) {
	t.Helper()
	pts := make([]geo.Point, 6)
	for i := range pts {
		pts[i] = geo.Pt(float64(30*i), 0)
	}
	l, err := field.FromPositions(pts, 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewScheduler(), network.New(l), gpsr.New(l)
}

func mkEvent(seq int) event.Event {
	e := event.New(0.25, 0.5, 0.75)
	e.Seq = uint64(seq)
	return e
}

// divergedPair returns a primary holding events [0,n), a replica
// holding [0,n-miss) plus extra replica-only events, and the pair.
func divergedPair(pNode, rNode, n, miss, extra int) (*memStore, *memStore, Pair) {
	p := &memStore{node: pNode}
	r := &memStore{node: rNode}
	for i := 0; i < n; i++ {
		p.evs = append(p.evs, mkEvent(i))
		if i < n-miss {
			r.evs = append(r.evs, mkEvent(i))
		}
	}
	for i := 0; i < extra; i++ {
		r.evs = append(r.evs, mkEvent(10_000+i))
	}
	return p, r, Pair{Primary: p, Replica: r}
}

func TestBackgroundRoundsConvergeAndExportMetrics(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	p, r, pair := divergedPair(0, 5, 30, 5, 3)
	src := &memSource{pairs: []Pair{pair}}

	rec := New(sched, net, router, Config{Period: time.Second}, src)
	reg := metrics.New()
	rec.EnableMetrics(reg)
	rec.Kick() // not running yet: must be a no-op
	rec.Start()
	rec.Start() // idempotent
	if err := sched.RunUntil(5*time.Second, 100_000); err != nil {
		t.Fatal(err)
	}

	if !PairInSync(pair) {
		t.Fatalf("pair still diverged by %d after background rounds", pairDivergence(pair))
	}
	if p.Len() != 33 || r.Len() != 33 {
		t.Fatalf("store sizes %d/%d, want 33/33", p.Len(), r.Len())
	}
	if got := rec.EventsMoved(); got != 8 {
		t.Fatalf("events moved = %d, want 8", got)
	}
	if rec.Sessions() < 4 {
		t.Fatalf("sessions = %d, want one per elapsed period", rec.Sessions())
	}
	if rec.Aborted() != 0 || rec.Fallbacks() != 0 || len(rec.Errs()) != 0 {
		t.Fatalf("aborted=%d fallbacks=%d errs=%v on a healthy pair",
			rec.Aborted(), rec.Fallbacks(), rec.Errs())
	}
	if rec.Symbols() == 0 || rec.Bytes() == 0 {
		t.Fatal("symbol/byte accounting never charged")
	}
	if rec.Convergence().Total() == 0 {
		t.Fatal("repairing session never observed a divergence window")
	}
	// Registry values mirror the accessors.
	checks := map[string]float64{
		"repair_sessions_total":     float64(rec.Sessions()),
		"repair_symbols_total":      float64(rec.Symbols()),
		"repair_bytes_total":        float64(rec.Bytes()),
		"repair_events_moved_total": float64(rec.EventsMoved()),
	}
	for name, want := range checks {
		if got := reg.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// Stop freezes the round schedule: pending ticks become no-ops.
	rec.Stop()
	before := rec.Sessions()
	if err := sched.RunUntil(20*time.Second, 100_000); err != nil {
		t.Fatal(err)
	}
	if rec.Sessions() != before {
		t.Fatalf("sessions advanced from %d to %d after Stop", before, rec.Sessions())
	}
}

// Stop followed by Start before the pending tick fires must leave one
// tick chain, not two: the stale tick belongs to an older epoch.
func TestStopStartKeepsOneTickChain(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	_, _, pair := divergedPair(0, 5, 4, 0, 0)
	rec := New(sched, net, router, Config{Period: time.Second}, &memSource{pairs: []Pair{pair}})
	rec.Start()
	if err := sched.RunUntil(500*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	rec.Start()
	if err := sched.RunUntil(10600*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	// Rounds at 1.5 s, 2.5 s, …, 10.5 s, one session each.
	if got := rec.Sessions(); got != 10 {
		t.Fatalf("%d rounds ran, want 10: a stale tick chain survived Stop/Start", got)
	}
	// A kick is a one-shot, not a chain: it fires once and schedules nothing.
	rec.Kick()
	if err := sched.RunUntil(10700*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	if got := rec.Sessions(); got != 11 {
		t.Fatalf("%d rounds after one kick, want 11", got)
	}
	rec.Stop()
	if pending := sched.Pending(); pending != 1 {
		t.Fatalf("%d events pending after Stop, want the one dead tick", pending)
	}
}

// unread is a Store whose events a session must not read: one side of a
// pair whose fingerprints are equal.
type unread struct {
	Store
	t *testing.T
}

func (u unread) AppendDigests(buf []uint64) []uint64 {
	u.t.Error("the session read the digests of an in-sync copy")
	return u.Store.AppendDigests(buf)
}

func (u unread) Fetch(digests []uint64, buf []event.Event) []event.Event {
	u.t.Error("the session fetched events of an in-sync copy")
	return u.Store.Fetch(digests, buf)
}

func TestInSyncPairConfirmsInOneSymbol(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	_, _, pair := divergedPair(0, 5, 40, 0, 0)
	pair.Primary, pair.Replica = unread{pair.Primary, t}, unread{pair.Replica, t}
	rec := New(sched, net, router, Config{}, &memSource{pairs: []Pair{pair}})
	if moved := rec.RunRound(); moved != 0 {
		t.Fatalf("equal pair moved %d events", moved)
	}
	if rec.Symbols() != 1 {
		t.Fatalf("equal pair cost %d symbols, want 1", rec.Symbols())
	}
	if rec.Bytes() != uint64(frameBytes(1)) {
		t.Fatalf("equal pair cost %d bytes, want %d", rec.Bytes(), frameBytes(1))
	}
	if net.Snapshot().TotalData() != 0 {
		t.Fatal("repair traffic leaked into data-path counters")
	}
}

func TestSnapshotModeCostTracksStoreSize(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	_, _, pair := divergedPair(0, 5, 50, 0, 0)
	rec := New(sched, net, router, Config{Snapshot: true}, &memSource{pairs: []Pair{pair}})
	if moved := rec.RunRound(); moved != 0 {
		t.Fatalf("equal pair moved %d events", moved)
	}
	if rec.Symbols() != 0 {
		t.Fatal("snapshot mode transmitted coded symbols")
	}
	if rec.Bytes() < uint64(dcs.ReplyBytes(3, 50)) {
		t.Fatalf("snapshot of 50 events cost %d bytes, want >= %d",
			rec.Bytes(), dcs.ReplyBytes(3, 50))
	}
	_ = net
}

func TestSnapshotRepairsBothDirections(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	p, r, pair := divergedPair(1, 4, 20, 4, 2)
	rec := New(sched, net, router, Config{Snapshot: true}, &memSource{pairs: []Pair{pair}})
	if moved := rec.RunRound(); moved != 6 {
		t.Fatalf("moved %d events, want 6", moved)
	}
	if !PairInSync(pair) || p.Len() != 22 || r.Len() != 22 {
		t.Fatalf("snapshot session left %d/%d diverged by %d",
			p.Len(), r.Len(), pairDivergence(pair))
	}
}

func TestUndecodableStreamFallsBackToSnapshot(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	// A peel frees one key per pure symbol, so 600 differing events cannot
	// peel within the 512-symbol budget.
	_, _, pair := divergedPair(0, 3, 600, 600, 0)
	rec := New(sched, net, router, Config{}, &memSource{pairs: []Pair{pair}})
	if moved := rec.RunRound(); moved != 600 {
		t.Fatalf("moved %d events, want 600", moved)
	}
	if rec.Symbols() != maxSymbols {
		t.Fatalf("stream sent %d symbols before falling back, want %d", rec.Symbols(), maxSymbols)
	}
	if rec.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", rec.Fallbacks())
	}
	if !PairInSync(pair) {
		t.Fatal("fallback snapshot left the pair diverged")
	}
}

func TestSessionAbortsDegradablyOnDeadReplica(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	p, r, pair := divergedPair(0, 5, 10, 3, 0)
	src := &memSource{pairs: []Pair{pair}}
	rec := New(sched, net, router, Config{}, src)

	net.FailNode(5)
	if moved := rec.RunRound(); moved != 0 {
		t.Fatalf("moved %d events into a dead replica", moved)
	}
	if rec.Aborted() != 1 || rec.Sessions() != 0 {
		t.Fatalf("aborted=%d sessions=%d, want 1/0", rec.Aborted(), rec.Sessions())
	}
	if errs := rec.Errs(); len(errs) != 0 {
		t.Fatalf("dead replica surfaced as hard errors: %v", errs)
	}

	net.RecoverNode(5)
	if moved := rec.RunRound(); moved != 3 {
		t.Fatalf("post-recovery round moved %d events, want 3", moved)
	}
	if !PairInSync(pair) || p.Len() != r.Len() {
		t.Fatal("pair not converged after recovery")
	}
	// The aborted round opened the divergence window; the repairing round
	// must have closed it.
	if rec.Convergence().Total() != 1 {
		t.Fatalf("convergence observations = %d, want 1", rec.Convergence().Total())
	}
	if Divergence(src) != 0 {
		t.Fatal("source-level divergence disagrees with PairInSync")
	}
}

func TestNilRegistryMetricsAreNoOp(t *testing.T) {
	sched, net, router := sessionUniverse(t)
	rec := New(sched, net, router, Config{}, &memSource{})
	rec.EnableMetrics(nil) // must not panic
	if rec.RunRound() != 0 {
		t.Fatal("empty source moved events")
	}
}
