// Package node is an event-driven, message-passing implementation of the
// Pool protocol: every sensor is an actor that reacts to packets
// delivered hop-by-hop through the radio network on the discrete-event
// kernel, with per-hop latency.
//
// The synchronous pool.System is the protocol's specification — it
// orchestrates the same algorithms (Theorem 3.1 insertion, Theorem 3.2
// resolving, §3.2.3 splitter trees, the failure-retry policy, cell
// mirroring, and index re-election) from a single vantage point. This
// package executes them as real distributed message exchanges: the sink
// hears nothing until replies physically arrive, splitters gather
// acknowledgements from their cells before answering, concurrent
// operations interleave, and — in repair.go — a crashed index node's
// role is re-claimed and its mirrored state pulled back hop by hop
// while live queries compete for the same radio. Both write through the
// same pool.Store. Equivalence tests in node_test.go and the
// internal/systemtest conformance harness check both implementations
// hold identical stores and return identical result sets on identical
// workloads, before and after faults.
//
// Scope: insertion, range queries, replication, and message-driven
// fault repair. Workload sharing and aggregates remain on the
// synchronous system.
package node

import (
	"errors"
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
)

// DefaultHopLatency is the per-hop transmission plus processing delay.
const DefaultHopLatency = 5 * time.Millisecond

// config collects construction options.
type config struct {
	tracer    *trace.Tracer
	replicate bool
}

// Option configures NewEngine.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithTracer attaches a causal-span tracer: every query and insert runs
// under its own span, recovery detours (alternate splitters, mirror
// failovers, reply re-sends) under OpRetry sub-spans, and service-queue
// entries leave wait/serve records — the evidence internal/attrib
// decomposes into latency phases. Pair it with network.WithTracer on
// the same tracer so per-hop records land in the same stream. A nil
// tracer (the default) costs one pointer compare per send.
func WithTracer(t *trace.Tracer) Option {
	return optionFunc(func(c *config) { c.tracer = t })
}

// SetTracer attaches the tracer after construction, to the engine and
// its network both, so causal spans and the per-hop records they
// decompose into land in one stream. The load harness's autopsy uses
// this on deployments built without tracing.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	e.net.SetTracer(t)
}

// WithReplication enables cell-level mirroring, the same design as
// pool.WithReplication: every stored event is copied to the cell's
// mirror node (the second-closest node to the cell centre), queries
// retry through the mirror when the index node is unreachable, and
// message-driven repair (repair.go) restores a re-elected index node's
// store from the mirror copy.
func WithReplication() Option {
	return optionFunc(func(c *config) { c.replicate = true })
}

// Engine owns the actors. What the paper assumes is predeployed
// knowledge — pools, pivots, index-node designations, membership, mirror
// assignments — is the embedded Directory, and what the actors' cells hold
// — segments, mirror copies, per-node counts — is the embedded Store: the
// same types, with the same rules and the same writes, the synchronous
// pool.System embeds. The engine adds how the Store's moves are carried:
// sends, repair packets, and the transfers in flight.
type Engine struct {
	*pool.Directory
	*pool.Store

	layout *field.Layout
	router *gpsr.Router
	net    *network.Network
	sched  *sim.Scheduler

	hopLatency time.Duration

	// Service-mode state (nil/zero unless EnableService): per-node serial
	// packet processing, the capacity model that makes queueing — and
	// therefore saturation — observable under sustained load.
	svcTime     time.Duration
	svcBusy     []time.Duration
	svcDepth    []int
	svcMaxDepth int

	// Repair-protocol state (repair.go): the elections, restores and
	// re-homes in flight.
	repairs     map[int]*repairRun
	elects      map[pool.CellID]*electTask
	restores    map[pool.Key]*xferTask
	rehomes     map[pool.Key]*xferTask
	repairHist  *stats.IntHistogram
	repairMsgs  uint64
	repairBytes uint64

	errs []error

	// In-flight state, all of it in engine-owned arenas addressed by slot
	// index: tasks are the exchanges on the air, and every task names the
	// record its outcome is handed to — a write (insert or mirror copy), a
	// repair packet, or a query's gather or leg (query.go), which hang off
	// the operation that issued them. State that conceptually lives at a
	// gathering node is carried here and stepped at that node's virtual
	// position. hid is this engine's handler id on the scheduler.
	tasks      arena[sendTask]
	writes     arena[write]
	repairSent arena[repairSend]
	ops        arena[operation]
	gathers    arena[gather]
	legs       arena[leg]
	hid        sim.HandlerID

	// matchBuf is serveCell's matching scratch: a cell's matches land here
	// in one pass and leave as an exact-size snapshot, because the reply
	// outlives the serving event. splittersPlan and splittersBuf are
	// SplittersFor's.
	matchBuf      []event.Event
	splittersPlan pool.Plan
	splittersBuf  []int

	// tracer, when non-nil, records causal spans for latency attribution
	// (WithTracer).
	tracer *trace.Tracer

	// Operation counts, which the metric families view: inserts and
	// queries injected, sends lost to transport errors, and per node the
	// packets in flight toward it (+1 in send, −1 when delivered or lost).
	inserts, queries, sendErrs uint64
	inflightTo                 []int32
}

// arena holds value-typed records addressed by slot index and recycled
// through a free stack: what lets the state of an exchange in flight be
// named by an integer in a scheduler event or in another record instead
// of being captured by a closure. It grows a chunk at a time and never
// moves a record, so a pointer from at stays good while the slot is in
// use, and a deployment's first wave pays for the slots it needs, not for
// copying the ones it already has.
type arena[T any] struct {
	chunks []*[arenaChunk]T
	used   int32 // slots ever handed out
	free   []int32
}

// arenaChunk is the number of records per chunk, a power of two.
const arenaChunk = 128

// at returns the record in slot i.
func (a *arena[T]) at(i int32) *T {
	u := uint32(i) // unsigned, so the split is a shift and a mask
	return &a.chunks[u/arenaChunk][u%arenaChunk]
}

// alloc returns a slot holding whatever release left in it — the zero
// record, the first time round.
func (a *arena[T]) alloc() int32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		return i
	}
	if int(a.used) == len(a.chunks)*arenaChunk {
		a.chunks = append(a.chunks, new([arenaChunk]T))
	}
	a.used++
	return a.used - 1
}

// release recycles slot i, leaving left in it: the zero record, or one
// that keeps nothing but the buffers worth reusing.
func (a *arena[T]) release(i int32, left T) {
	*a.at(i) = left
	a.free = append(a.free, i)
}

// live returns the number of slots allocated and not released.
func (a *arena[T]) live() int { return int(a.used) - len(a.free) }

// sendTask is the in-flight state of one hop-by-hop exchange, held by
// value in the engine's task arena so the per-hop scheduler events are
// a handler id plus an index — no per-hop closures. Its outcome goes to
// record rec of kind cont (settle). The path slice is kept across
// recycling as the route scratch buffer.
type sendTask struct {
	path    []int
	err     error
	span    uint64
	to      int32
	hop     int32
	attempt int32
	size    int32
	rec     int32
	kind    network.Kind
	cont    recKind
}

// recKind says which arena holds the record a task's outcome is handed
// to. It is the engine's one continuation mechanism: whoever starts an
// exchange parks what it needs afterwards in a record and gives send the
// (kind, slot) pair.
type recKind uint8

const (
	recWrite recKind = iota + 1
	recRepair
	recGather
	recLeg
)

// write is an event on its way to a node that will store it: Insert's
// exchange from the detecting sensor to the index node, or storeEvent's
// copy from there to the cell's mirror.
type write struct {
	key    pool.Key
	ev     event.Event
	index  int32  // the primary holder; unused by a mirror copy
	mirror bool   // a copy for the cell's mirror: acknowledges nobody
	span   uint64 // the insert's span (0 untraced, and on mirror copies)
	done   func()
}

// Typed-event op codes for Engine.HandleEvent. One exchange advances
// through opArrive (frame lands after the hop latency), opResend (ARQ
// retransmit timer), opServe (destination's serial service queue
// reaches the packet); opLocal and opRouteFail are the zero-hop entry
// points for self-sends and unroutable destinations. opFinish is not an
// exchange's: it completes the operation in slot a, one scheduler turn
// after a query that addressed no cell was issued.
const (
	opArrive uint8 = iota
	opResend
	opLocal
	opRouteFail
	opServe
	opFinish
)

// NewEngine builds the actor network over a pool.Directory of the default
// geometry, so the same rng seed yields the same Pool layout as the
// synchronous system.
func NewEngine(net *network.Network, router *gpsr.Router, sched *sim.Scheduler, dims int, src *rng.Source, pivots []pool.CellID, opts ...Option) (*Engine, error) {
	var cfg config
	for _, o := range opts {
		o.apply(&cfg)
	}
	layout := net.Layout()
	dir, err := pool.NewDirectory(layout, dims, pool.DefaultSide, pivots, src, cfg.replicate)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Directory:  dir,
		Store:      pool.NewStore(dir),
		layout:     layout,
		router:     router,
		net:        net,
		sched:      sched,
		hopLatency: DefaultHopLatency,
		repairs:    make(map[int]*repairRun),
		elects:     make(map[pool.CellID]*electTask),
		restores:   make(map[pool.Key]*xferTask),
		rehomes:    make(map[pool.Key]*xferTask),
		repairHist: stats.NewIntHistogram(),
		tracer:     cfg.tracer,
		inflightTo: make([]int32, layout.N()),
	}
	e.hid = sched.Register(e)
	return e, nil
}

// EnableMetrics registers the engine's live metrics on reg, each a view
// of the engine's own state: a per-node mailbox-depth gauge (packets
// scheduled toward a node that have not yet been delivered),
// insert/query counters, a transport-error counter, gauges over
// in-flight operations and repairs, and the repair-latency histogram. A
// nil registry is a no-op.
func (e *Engine) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.NodeGaugeFunc("node_mailbox_depth", "packets in flight toward each node", e.layout.N(),
		func(i int) float64 { return float64(e.inflightTo[i]) })
	reg.CounterFunc("node_inserts_total", "inserts injected into the actor engine",
		func() float64 { return float64(e.inserts) })
	reg.CounterFunc("node_queries_total", "queries injected into the actor engine",
		func() float64 { return float64(e.queries) })
	reg.CounterFunc("node_send_errors_total", "sends aborted by transport errors",
		func() float64 { return float64(e.sendErrs) })
	reg.GaugeFunc("node_inflight_ops", "operations awaiting completion",
		func() float64 { return float64(e.ops.live()) })
	reg.GaugeFunc("node_repairs_inflight", "crashed nodes whose repair exchanges are still in flight",
		func() float64 { return float64(len(e.repairs)) })
	reg.HistogramOf("node_repair_latency_ms", "crash-to-convergence latency of message-driven repairs",
		e.repairHist)
	reg.NodeGaugeFunc("node_stored_events", "events held per actor node", e.layout.N(),
		func(i int) float64 { return float64(e.Stored(i)) })
}

// enter makes span the ambient tracer span until the matching leave, and
// reports whether it did: untraced and span 0 leave the ambient span
// alone.
func (e *Engine) enter(span uint64) bool {
	if e.tracer == nil || span == 0 {
		return false
	}
	e.tracer.PushSpan(span)
	return true
}

// leave undoes an enter that reported true.
func (e *Engine) leave(entered bool) {
	if entered {
		e.tracer.PopSpan()
	}
}

// Errors returns non-degradable transport errors recorded during the
// run (nil when the run was clean). Degradable failures — dead radios,
// partitions, exhausted hop budgets — are not errors: they feed the
// operation-level retry and completeness machinery instead.
func (e *Engine) Errors() []error { return e.errs }

// send moves a packet from one node to another hop by hop; each hop is a
// scheduled radio transmission with per-hop link-layer retransmission
// (the dcs.MaxRetransmissions budget the synchronous unicast applies).
// The exchange settles exactly once, on record rec of kind cont
// (settle): with a nil error at the destination when the last hop lands,
// or with the loss at the virtual time the exchange is known lost — the
// route is unreachable, a dead radio blocks a hop, or a hop exhausts its
// retry budget. What a loss means is the record's business (a mirror copy
// shrugs, a query leg retries); a non-degradable fault is always recorded
// in Errors as well.
func (e *Engine) send(from, to int, kind network.Kind, size int, cont recKind, rec int32) {
	// The exchange belongs to whatever span is ambient at send time;
	// every typed continuation re-enters it so per-hop records and
	// downstream sends attribute correctly.
	e.inflightTo[to]++
	ti := e.tasks.alloc()
	t := e.tasks.at(ti)
	t.span = e.tracer.CurrentSpan()
	t.to = int32(to)
	t.kind, t.size = kind, int32(size)
	t.cont, t.rec = cont, rec
	t.hop, t.attempt = 0, 1
	if from == to {
		e.sched.AfterEvent(0, e.hid, opLocal, uint64(ti), 0)
		return
	}
	res, err := e.router.RouteToNodeBuf(from, to, t.path[:0])
	if err != nil {
		wrapped := fmt.Errorf("node: send %d→%d: %w", from, to, err)
		if errors.Is(err, gpsr.ErrUnreachable) {
			wrapped = fmt.Errorf("node: send %d→%d: %v: %w", from, to, err, dcs.ErrUnreachable)
		}
		t.err = wrapped
		e.sched.AfterEvent(0, e.hid, opRouteFail, uint64(ti), 0)
		return
	}
	t.path = res.Path
	e.hopStep(ti)
}

// HandleEvent advances one exchange on a typed scheduler event — the
// engine's side of the sim.Handler contract. Every continuation runs
// with the exchange's span ambient, the bridge that carries span
// identity across scheduler callbacks.
func (e *Engine) HandleEvent(op uint8, a, _ uint64) {
	if op == opFinish {
		e.finish(int32(a))
		return
	}
	ti := int32(a)
	t := e.tasks.at(ti)
	traced := e.tracer != nil && t.span != 0
	if traced {
		e.tracer.PushSpan(t.span)
	}
	switch op {
	case opArrive:
		// The frame arrives now. A receiver that died while it was on
		// the air never takes it — reception needs a powered radio at
		// arrival time, not just at transmit time — and the sender,
		// hearing no ack, retransmits.
		next := t.path[t.hop+1]
		if !e.net.Alive(next) {
			if int(t.attempt) >= dcs.MaxRetransmissions {
				e.failTask(ti, fmt.Errorf("node: hop %d→%d died mid-flight: %w",
					t.path[t.hop], next, dcs.ErrUnreachable))
				break
			}
			t.attempt++
			e.hopStep(ti)
			break
		}
		t.hop++
		t.attempt = 1
		e.hopStep(ti)
	case opResend:
		e.hopStep(ti)
	case opLocal:
		e.deliverTask(ti)
	case opRouteFail:
		err := t.err
		t.err = nil
		e.failTask(ti, err)
	case opServe:
		e.svcDepth[t.to]--
		e.finishDeliver(ti)
	}
	if traced {
		e.tracer.PopSpan()
	}
}

// hopStep transmits the task's current hop and schedules its arrival,
// its ARQ retransmission, or its failure.
func (e *Engine) hopStep(ti int32) {
	t := e.tasks.at(ti)
	if int(t.hop) >= len(t.path)-1 {
		e.deliverTask(ti)
		return
	}
	from, next := t.path[t.hop], t.path[t.hop+1]
	err := e.net.Transmit(from, next, t.kind, int(t.size))
	switch {
	case err == nil:
		e.sched.AfterEvent(e.hopLatency, e.hid, opArrive, uint64(ti), 0)
	case errors.Is(err, network.ErrFrameLost):
		if int(t.attempt) >= dcs.MaxRetransmissions {
			e.failTask(ti, fmt.Errorf("node: hop %d→%d dropped after %d attempts: %w",
				from, next, t.attempt, dcs.ErrHopExhausted))
			return
		}
		t.attempt++
		e.sched.AfterEvent(e.hopLatency, e.hid, opResend, uint64(ti), 0)
	case errors.Is(err, network.ErrNodeDown):
		// A dead neighbour is indistinguishable from frame loss at
		// the link layer — no ack comes back either way — so the
		// relay burns its whole retransmission budget before giving
		// up. Failure detection costs the full ARQ timeout; it is
		// not a free NACK from a corpse.
		if int(t.attempt) >= dcs.MaxRetransmissions {
			e.failTask(ti, fmt.Errorf("node: hop %d→%d: %v: %w", from, next, err, dcs.ErrUnreachable))
			return
		}
		t.attempt++
		e.sched.AfterEvent(e.hopLatency, e.hid, opResend, uint64(ti), 0)
	default:
		e.failTask(ti, fmt.Errorf("node: transmit: %w", err))
	}
}

// deliverTask runs once the last hop has landed: it queues the packet
// on the destination's serial service queue (service mode) or completes
// the delivery immediately.
func (e *Engine) deliverTask(ti int32) {
	t := e.tasks.at(ti)
	if e.svcTime <= 0 {
		e.finishDeliver(ti)
		return
	}
	to := int(t.to)
	start := e.sched.Now()
	if e.svcBusy[to] > start {
		start = e.svcBusy[to]
	}
	// The queue-entry record at now and the service-start record at the
	// (already known) busy-until watermark bracket pure queueing delay
	// for latency attribution — no extra scheduler event needed.
	if span := e.tracer.CurrentSpan(); span != 0 {
		e.tracer.Record(trace.TypeWait, to, e.svcDepth[to], "")
		e.tracer.RecordAt(start, trace.TypeServe, to, 0, "")
	}
	e.svcBusy[to] = start + e.svcTime
	e.svcDepth[to]++
	if e.svcDepth[to] > e.svcMaxDepth {
		e.svcMaxDepth = e.svcDepth[to]
	}
	// svcBusy[to] ≥ now, so AtEvent cannot fail.
	_ = e.sched.AtEvent(e.svcBusy[to], e.hid, opServe, uint64(ti), 0)
}

// finishDeliver completes a delivery whose service (if any) is done.
// The frame was acked into the receiver's queue, but a mote that dies
// before servicing it takes the queue down with its RAM: the exchange
// is lost, and the sender's only signal is silence.
func (e *Engine) finishDeliver(ti int32) {
	t := e.tasks.at(ti)
	to := int(t.to)
	if !e.net.Alive(to) {
		e.failTask(ti, fmt.Errorf("node: %d died with the packet queued: %w", to, dcs.ErrUnreachable))
		return
	}
	e.inflightTo[to]--
	cont, rec := t.cont, t.rec
	e.freeTask(ti)
	e.settle(cont, rec, nil)
}

// failTask settles an exchange as lost at the current virtual time,
// recycling its task before the record's loss policy runs so recursive
// sends reuse the slot.
func (e *Engine) failTask(ti int32, err error) {
	t := e.tasks.at(ti)
	e.inflightTo[t.to]--
	e.sendErrs++
	if !dcs.IsDegradable(err) {
		e.errs = append(e.errs, err)
	}
	cont, rec := t.cont, t.rec
	e.freeTask(ti)
	e.settle(cont, rec, err)
}

// freeTask recycles a task slot, keeping only the path buffer for route
// reuse.
func (e *Engine) freeTask(ti int32) {
	e.tasks.release(ti, sendTask{path: e.tasks.at(ti).path})
}

// settle hands a finished exchange — landed when err is nil, lost
// otherwise — to the record that started it. The task is already
// recycled; each record kind frees its own slot before anything that can
// re-enter the engine runs.
func (e *Engine) settle(cont recKind, rec int32, err error) {
	switch cont {
	case recWrite:
		e.writeSettled(rec, err)
	case recRepair:
		e.repairSettled(rec, err)
	case recGather, recLeg:
		e.querySettled(cont, rec, err)
	}
}

// Insert injects an event at its detecting sensor. done (optional) fires
// when the index node has stored it. With replication the mirror copy
// rides a second exchange; an unreachable index node loses the event
// (the radio-level loss the synchronous system reports as an insert
// error).
func (e *Engine) Insert(origin int, ev event.Event, done func()) error {
	key, index, err := e.Place(origin, ev)
	if err != nil {
		return err
	}
	e.inserts++
	span := e.tracer.BeginAt(e.tracer.CurrentSpan(), trace.OpInsert, origin, "")
	wi := e.writes.alloc()
	*e.writes.at(wi) = write{key: key, ev: ev, index: int32(index), span: span, done: done}
	entered := e.enter(span)
	e.send(origin, index, network.KindInsert, dcs.EventBytes(e.Dims()), recWrite, wi)
	e.leave(entered)
	return nil
}

// writeSettled lands a write: an insert is stored (and mirrored) at its
// index node, its span closed and its caller told; a mirror copy joins
// the mirror store, or, lost, leaves the mirror short of it. A lost insert
// loses the event — its span still closes.
func (e *Engine) writeSettled(wi int32, err error) {
	w := *e.writes.at(wi)
	e.writes.release(wi, write{})
	switch {
	case w.mirror:
		if err == nil {
			e.AppendMirror(w.key, w.ev)
		}
	case err != nil:
		e.tracer.EndSpan(w.span)
	default:
		e.storeEvent(w.key, int(w.index), w.ev, true)
		e.tracer.EndSpan(w.span)
		if w.done != nil {
			w.done()
		}
	}
}

// Preload stores an event synchronously through global knowledge — no
// packets, no virtual time — so experiments can load a population
// before the clock starts. Placement, storage, and mirror election are
// identical to a drained Insert, and so are an insert from an origin or
// to an index node whose radio is down (an error wrapping
// dcs.ErrUnreachable, nothing stored) and a mirror write lost to a
// mirror whose radio is down; only the radio traffic is skipped.
func (e *Engine) Preload(origin int, ev event.Event) error {
	key, index, err := e.Place(origin, ev)
	if err != nil {
		return err
	}
	if !e.net.Alive(origin) {
		return fmt.Errorf("node: preload: origin %d is down: %w", origin, dcs.ErrUnreachable)
	}
	if !e.net.Alive(index) {
		return fmt.Errorf("node: preload: index node %d is down: %w", index, dcs.ErrUnreachable)
	}
	e.storeEvent(key, index, ev, false)
	return nil
}

// storeEvent lands an event at its primary holder and mirrors it when
// replication is on, electing the mirror on first use with the same
// rule as the synchronous mirrorEvent (the directory's ElectMirror).
// viaRadio selects whether the mirror copy is a real
// exchange or a preload-time bookkeeping write, which reaches a mirror
// that is on the air.
func (e *Engine) storeEvent(key pool.Key, index int, ev event.Event, viaRadio bool) {
	e.Append(key, index, ev)
	mirror := e.ElectMirror(key, index)
	if mirror < 0 {
		return
	}
	if !viaRadio {
		if e.net.Alive(mirror) {
			e.AppendMirror(key, ev)
		}
		return
	}
	wi := e.writes.alloc()
	*e.writes.at(wi) = write{key: key, ev: ev, mirror: true}
	e.send(index, mirror, network.KindInsert, dcs.EventBytes(e.Dims()), recWrite, wi)
}
