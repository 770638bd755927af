package antientropy

import (
	"fmt"
	"slices"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
)

// Store is one side of a replica pair: a digest-addressable view of the
// events a node holds for the replicated unit (a pool cell's primary
// or mirror copy).
type Store interface {
	// Node is the network node holding this side.
	Node() int
	// Fingerprint is the fingerprint of the held events: two sides whose
	// fingerprints are equal hold the same events.
	Fingerprint() event.Fingerprint
	// AppendDigests appends the digest of every held event to buf.
	// Duplicates are allowed; the codec collapses them.
	AppendDigests(buf []uint64) []uint64
	// Fetch appends to buf the event behind each digest, in the order
	// asked, skipping digests the store does not hold. Of several events
	// with one digest the first in AppendDigests order answers.
	Fetch(digests []uint64, buf []event.Event) []event.Event
	// Insert adds a missing event to this side.
	Insert(e event.Event)
}

// Pair is one replicated unit to keep in sync.
type Pair struct {
	// ID is the unit's slot: it names the unit by role, not by node, so a
	// re-homed replica keeps its divergence window across rounds.
	ID      int
	Primary Store
	Replica Store
}

// PairSource enumerates a backend's replica pairs. The enumeration must
// be deterministic: same system state, same order. The slice and the
// Stores in it are the source's own and hold until its next call.
type PairSource interface {
	ReplicaPairs() []Pair
}

// Session framing for the cost model, mirroring the dcs payload helpers:
// every frame carries a 16-byte header, coded symbols are SymbolBytes
// each, and a digest request lists 8-byte digests.
const sessionHeaderBytes = 16

func frameBytes(symbols int) int  { return sessionHeaderBytes + symbols*SymbolBytes }
func digestBytes(digests int) int { return sessionHeaderBytes + digests*8 }

// A session's rateless stream opens with a frame of firstBatch coded
// symbols, so an in-sync pair confirms equality in one ~40-byte frame;
// batches double per frame up to maxBatch, and past maxSymbols the session
// falls back to a full snapshot exchange.
const (
	firstBatch = 1
	maxBatch   = 16
	maxSymbols = 512
)

// Config tunes the reconciler. The zero value selects the defaults.
type Config struct {
	// Period is the background round interval (default 5s).
	Period time.Duration
	// Snapshot forces every session to the naive full-snapshot exchange —
	// the baseline the experiments compare rateless reconciliation against.
	Snapshot bool
}

func (c Config) period() time.Duration {
	if c.Period > 0 {
		return c.Period
	}
	return 5 * time.Second
}

// pairState tracks a pair's divergence window between rounds.
type pairState struct {
	// lastSync is the last virtual time the pair was known equal.
	lastSync time.Duration
	// diverged marks a window opened by a repairing or aborted session;
	// divergedAt is the lastSync at that moment — the last instant the
	// replicas were provably in sync, an upper bound on when they split.
	diverged   bool
	divergedAt time.Duration
}

// Reconciler runs anti-entropy sessions between replica pairs as
// scheduled background traffic. Each round it walks its source's pairs
// and reconciles them over routed unicast (KindControl frames, so
// repair traffic never pollutes the data-path counters); a session that
// hits a dead or partitioned replica aborts gracefully and retries next
// round.
type Reconciler struct {
	sched  *sim.Scheduler
	net    *network.Network
	router *gpsr.Router
	cfg    Config
	src    PairSource

	// state holds each pair's divergence window, indexed by Pair.ID.
	state []pairState

	// Session scratch, reused across sessions: the routed path, the
	// summaries of both sides and the digest column they are built from,
	// the codec of a diverged pair, and the digests, positions and events
	// of a transfer.
	pathBuf    []int
	sumA, sumB Summary
	digests    []uint64
	enc        Encoder
	dec        Decoder
	wantA      []uint64
	wantB      []uint64
	order      []uint64
	eventBuf   []event.Event

	sessions  uint64
	aborted   uint64
	fallbacks uint64
	symbols   uint64
	bytes     uint64
	moved     uint64
	conv      *stats.IntHistogram
	errs      []error

	// hid addresses the reconciler's typed scheduler events (op, epoch).
	hid     sim.HandlerID
	running bool
	// epoch invalidates a stale tick chain: Start bumps it, and a pending
	// tick whose epoch no longer matches is a no-op, so Stop followed by
	// Start never leaves two chains running.
	epoch uint64
}

// Scheduler event ops.
const (
	opTick uint8 = iota // a background round is due; a is the chain's epoch
	opKick              // an extra round asked for by Kick
)

// New builds a reconciler over the pairs src enumerates. Call Start to
// begin background rounds, or RunRound to drive it manually.
func New(sched *sim.Scheduler, net *network.Network, router *gpsr.Router, cfg Config, src PairSource) *Reconciler {
	r := &Reconciler{
		sched:  sched,
		net:    net,
		router: router,
		cfg:    cfg,
		src:    src,
		conv:   stats.NewIntHistogram(),
	}
	r.hid = sched.Register(r)
	return r
}

// EnableMetrics registers the repair metric families on reg.
func (r *Reconciler) EnableMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.CounterFunc("repair_sessions_total", "Completed anti-entropy reconciliation sessions.",
		func() float64 { return float64(r.sessions) })
	reg.CounterFunc("repair_sessions_aborted_total", "Reconciliation sessions aborted by unreachable replicas.",
		func() float64 { return float64(r.aborted) })
	reg.CounterFunc("repair_snapshot_fallbacks_total", "Rateless sessions that fell back to a full snapshot exchange.",
		func() float64 { return float64(r.fallbacks) })
	reg.CounterFunc("repair_symbols_total", "Coded symbols transmitted by reconciliation sessions.",
		func() float64 { return float64(r.symbols) })
	reg.CounterFunc("repair_bytes_total", "Payload bytes transmitted by reconciliation sessions.",
		func() float64 { return float64(r.bytes) })
	reg.CounterFunc("repair_events_moved_total", "Events copied between replicas by reconciliation.",
		func() float64 { return float64(r.moved) })
	reg.HistogramOf("repair_convergence_ms", "Divergence-window length closed per repairing session, milliseconds.", r.conv)
}

// Start schedules background rounds every Period of virtual time.
func (r *Reconciler) Start() {
	if r.running {
		return
	}
	r.running = true
	r.epoch++
	r.sched.AfterEvent(r.cfg.period(), r.hid, opTick, r.epoch, 0)
}

// Stop halts background rounds; pending ticks become no-ops.
func (r *Reconciler) Stop() { r.running = false }

// Kick schedules an immediate extra round — wired to recovery events so
// a rejoining node is repaired without waiting out the period.
func (r *Reconciler) Kick() {
	if !r.running {
		return
	}
	r.sched.AfterEvent(0, r.hid, opKick, 0, 0)
}

// HandleEvent implements sim.Handler: a tick of the chain started at
// epoch a runs a round and schedules its successor; a kick runs a round.
func (r *Reconciler) HandleEvent(op uint8, a, _ uint64) {
	if !r.running || (op == opTick && a != r.epoch) {
		return
	}
	r.RunRound()
	if op == opTick {
		r.sched.AfterEvent(r.cfg.period(), r.hid, opTick, a, 0)
	}
}

// RunRound reconciles every pair once and returns the number of events
// moved.
func (r *Reconciler) RunRound() int {
	total := 0
	pairs := r.src.ReplicaPairs()
	for i := range pairs {
		total += r.reconcile(&pairs[i])
	}
	return total
}

// Accessors for the experiment tables and tests.

// Sessions returns completed sessions.
func (r *Reconciler) Sessions() uint64 { return r.sessions }

// Aborted returns sessions abandoned on unreachable replicas.
func (r *Reconciler) Aborted() uint64 { return r.aborted }

// Fallbacks returns rateless sessions that fell back to snapshots.
func (r *Reconciler) Fallbacks() uint64 { return r.fallbacks }

// Symbols returns coded symbols transmitted.
func (r *Reconciler) Symbols() uint64 { return r.symbols }

// Bytes returns payload bytes transmitted by sessions.
func (r *Reconciler) Bytes() uint64 { return r.bytes }

// EventsMoved returns events copied between replicas.
func (r *Reconciler) EventsMoved() uint64 { return r.moved }

// Convergence returns the divergence-window histogram (milliseconds).
func (r *Reconciler) Convergence() *stats.IntHistogram { return r.conv }

// Errs returns non-degradable session failures; a correct deployment
// never produces any.
func (r *Reconciler) Errs() []error { return r.errs }

func (r *Reconciler) stateOf(id int) *pairState {
	if id >= len(r.state) {
		r.state = append(r.state, make([]pairState, id+1-len(r.state))...)
	}
	return &r.state[id]
}

// reconcile runs one session and settles the pair's divergence window:
// a session that moved events (or aborted) opens the window at the last
// provably-in-sync instant; a session that completed closes it and
// observes its length in the convergence histogram.
func (r *Reconciler) reconcile(p *Pair) int {
	st := r.stateOf(p.ID)
	var moved int
	var err error
	if r.cfg.Snapshot {
		a, b := r.summarize(p)
		moved, err = r.snapshotSession(p, a, b)
	} else {
		moved, err = r.ratelessSession(p)
	}
	r.moved += uint64(moved)
	if err != nil {
		if !dcs.IsDegradable(err) {
			r.errs = append(r.errs, fmt.Errorf("antientropy pair %d: %w", p.ID, err))
			return moved
		}
		r.aborted++
		if !st.diverged {
			st.diverged, st.divergedAt = true, st.lastSync
		}
		return moved
	}
	r.sessions++
	if moved > 0 && !st.diverged {
		st.diverged, st.divergedAt = true, st.lastSync
	}
	now := r.sched.Now()
	if st.diverged {
		r.conv.Add((now - st.divergedAt).Milliseconds())
		st.diverged = false
	}
	st.lastSync = now
	return moved
}

// summarize builds the summaries of the pair's primary and replica in the
// session's scratch and returns them.
func (r *Reconciler) summarize(p *Pair) (a, b *Summary) {
	r.digests = p.Primary.AppendDigests(r.digests[:0])
	Summarize(&r.sumA, r.digests)
	r.digests = p.Replica.AppendDigests(r.digests[:0])
	Summarize(&r.sumB, r.digests)
	return &r.sumA, &r.sumB
}

// unicast sends one session frame, charging the cost model on success.
func (r *Reconciler) unicast(from, to int, payload int) error {
	_, err := dcs.UnicastOpts(r.net, r.router, from, to, network.KindControl, payload, dcs.TxOptions{PathBuf: &r.pathBuf})
	if err == nil {
		r.bytes += uint64(payload)
	}
	return err
}

// ratelessSession streams coded symbols primary→replica in doubling
// batches until the replica peel-decodes the symmetric difference, then
// transfers exactly the missing events in both directions. Cost is
// ~O(|Δ|) symbols however large the stores are; an undecodable stream
// (past maxSymbols) falls back to the snapshot exchange. On the host a
// pair whose fingerprints are equal costs its one frame and no event
// read: it holds one set, so the stream would decode an empty difference
// from that frame. A pair holding one set with unequal fingerprints — one
// side holds an event twice — runs the codec and decodes the same empty
// difference after the same frame.
func (r *Reconciler) ratelessSession(p *Pair) (int, error) {
	batch := firstBatch
	if p.Primary.Fingerprint() == p.Replica.Fingerprint() {
		if err := r.unicast(p.Primary.Node(), p.Replica.Node(), frameBytes(batch)); err != nil {
			return 0, err
		}
		r.symbols += uint64(batch)
		return 0, nil
	}
	a, b := r.summarize(p)
	r.enc.reset(a.Keys, a.Zero)
	r.dec.reset(b.Keys, b.Zero)
	for {
		n := min(batch, maxSymbols-r.dec.Received())
		for i := 0; i < n; i++ {
			r.dec.Add(r.enc.Next())
		}
		if err := r.unicast(p.Primary.Node(), p.Replica.Node(), frameBytes(n)); err != nil {
			return 0, err
		}
		r.symbols += uint64(n)
		if diff, ok := r.dec.Decode(); ok {
			return r.transfer(p, diff)
		}
		if r.dec.Received() >= maxSymbols {
			r.fallbacks++
			return r.snapshotSession(p, a, b)
		}
		batch = min(2*batch, maxBatch)
	}
}

// transfer moves a decoded symmetric difference: the replica requests
// its missing events by digest and the primary ships them, then the
// replica pushes its primary-missing events back.
func (r *Reconciler) transfer(p *Pair, diff Diff) (int, error) {
	moved := 0
	if len(diff.Remote) > 0 {
		if err := r.unicast(p.Replica.Node(), p.Primary.Node(), digestBytes(len(diff.Remote))); err != nil {
			return moved, err
		}
		n, err := r.ship(p.Primary, p.Replica, diff.Remote)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	if len(diff.Local) > 0 {
		n, err := r.ship(p.Replica, p.Primary, diff.Local)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// ship fetches the events behind digests from one side, pays for their
// transfer, and inserts them on the other.
func (r *Reconciler) ship(from, to Store, digests []uint64) (int, error) {
	evs := from.Fetch(digests, r.eventBuf[:0])
	r.eventBuf = evs
	if len(evs) == 0 {
		return 0, nil
	}
	k := len(evs[0].Values)
	if err := r.unicast(from.Node(), to.Node(), dcs.ReplyBytes(k, len(evs))); err != nil {
		return 0, err
	}
	for _, e := range evs {
		to.Insert(e)
	}
	return len(evs), nil
}

// snapshotSession is the naive baseline: the primary ships its entire
// store to the replica, which applies what it lacks and pushes its own
// surplus back. Cost grows with store size regardless of how little
// actually differs. Which events differ is a merge over the two
// summaries' sorted keys, decided before either side is written to.
func (r *Reconciler) snapshotSession(p *Pair, a, b *Summary) (int, error) {
	r.wantB = r.onlyIn(r.wantB[:0], a, b)
	r.wantA = r.onlyIn(r.wantA[:0], b, a)

	// The full primary store travels even when nothing differs: every
	// distinct event once.
	k := 0
	if len(a.Keys) > 0 {
		r.eventBuf = p.Primary.Fetch(a.Keys[:1], r.eventBuf[:0])
		k = len(r.eventBuf[0].Values)
	}
	if err := r.unicast(p.Primary.Node(), p.Replica.Node(), dcs.ReplyBytes(k, len(a.Keys))); err != nil {
		return 0, err
	}
	r.eventBuf = p.Primary.Fetch(r.wantB, r.eventBuf[:0])
	moved := len(r.eventBuf)
	for _, e := range r.eventBuf {
		p.Replica.Insert(e)
	}

	// Replica-only surplus goes back.
	if len(r.wantA) > 0 {
		n, err := r.ship(p.Replica, p.Primary, r.wantA)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// onlyIn appends to out the digests a holds and b lacks, in a's store
// order, so a transfer applies events in the order their holder keeps
// them.
func (r *Reconciler) onlyIn(out []uint64, a, b *Summary) []uint64 {
	ord, j := r.order[:0], 0
	for i, k := range a.Keys {
		for j < len(b.Keys) && b.Keys[j] < k {
			j++
		}
		if j == len(b.Keys) || b.Keys[j] != k {
			ord = append(ord, uint64(a.First[i])<<32|uint64(i))
		}
	}
	slices.Sort(ord)
	for _, o := range ord {
		out = append(out, a.Keys[uint32(o)])
	}
	r.order = ord
	return out
}

// PairInSync reports whether both sides of a pair hold identical event
// sets (by digest).
func PairInSync(p Pair) bool {
	return pairDivergence(p) == 0
}

func pairDivergence(p Pair) int {
	var sa, sb Summary
	Summarize(&sa, p.Primary.AppendDigests(nil))
	Summarize(&sb, p.Replica.AppendDigests(nil))
	a, b := sa.Keys, sb.Keys
	common := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			common, i, j = common+1, i+1, j+1
		}
	}
	return len(a) + len(b) - 2*common
}

// Divergence sums the symmetric-difference sizes across every pair src
// enumerates — 0 means all replicas are in sync.
func Divergence(src PairSource) int {
	total := 0
	for _, p := range src.ReplicaPairs() {
		total += pairDivergence(p)
	}
	return total
}
