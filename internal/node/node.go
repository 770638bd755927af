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
// while live queries compete for the same radio. Equivalence tests in
// node_test.go and the internal/systemtest conformance harness check
// both implementations return identical result sets on identical
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
// assignments — is the embedded Directory, the same type with the same
// rules the synchronous pool.System embeds.
type Engine struct {
	*pool.Directory

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

	// Per-node storage: the state each actor owns. stored counts events
	// per primary holder (mirror copies excluded), matching
	// pool.System's accounting.
	store  []map[pool.Key][]event.Event
	stored []int

	// mirrorStore holds the mirror copies, keyed like the directory's
	// mirror assignments (nil without replication).
	mirrorStore map[pool.Key][]event.Event

	// Repair-protocol state (repair.go).
	repairs      map[int]*repairRun
	elects       map[pool.CellID]*electTask
	xfers        map[pool.Key]*xferTask
	transferring map[pool.Key]bool
	repairHist   *stats.IntHistogram
	repairMsgs   uint64
	repairBytes  uint64

	// In-flight operation state, keyed by operation id. Gather state
	// conceptually lives at the gathering node; it is carried here in
	// closures scheduled at that node's virtual position.
	ops  map[uint64]*operation
	seq  uint64
	errs []error

	// In-flight exchange state for the typed-event hot path: sendTask
	// slots recycled through a free list, addressed by index in the
	// scheduler's event arguments. hid is this engine's handler id on
	// the scheduler.
	tasks    []sendTask
	taskFree int32
	hid      sim.HandlerID

	// matchBuf is serveCell's matching scratch: a cell's matches land here
	// in one pass and leave as an exact-size snapshot, because the reply
	// outlives the serving event.
	matchBuf []event.Event

	// tracer, when non-nil, records causal spans for latency attribution
	// (WithTracer).
	tracer *trace.Tracer

	// Metric handles (nil until EnableMetrics).
	mMailbox  *metrics.GaugeVec
	mInserts  *metrics.Counter
	mQueries  *metrics.Counter
	mSendErrs *metrics.Counter
}

// operation tracks an in-flight query.
type operation struct {
	id   uint64
	sink int
	// span is the query's trace span (0 when tracing is off).
	span uint64
	// poolsLeft is how many pool replies the sink still awaits.
	poolsLeft int
	results   []event.Event
	comp      dcs.Completeness
	started   time.Duration
	onDone    func(results []event.Event, comp dcs.Completeness, elapsed time.Duration)
}

// gather is the reply-collection state a splitter keeps for one query.
type gather struct {
	splitter  int
	cellsLeft int
	results   []event.Event
	// served records each reached cell and its match count, so the final
	// reply leg can demote served cells when the aggregate reply is lost
	// — the same bookkeeping as the synchronous queryPool.
	served []servedCell
}

// servedCell records one reached cell of a fan-out and how many matches
// the splitter holds for it.
type servedCell struct {
	cell    pool.CellID
	matches int
}

// sendTask is the in-flight state of one hop-by-hop exchange, held by
// value in the engine's task arena so the per-hop scheduler events are
// a handler id plus an index — no per-hop closures. The path slice is
// kept across recycling as the route scratch buffer.
type sendTask struct {
	path    []int
	deliver func()
	fail    func(error)
	err     error
	span    uint64
	to      int32
	hop     int32
	attempt int32
	size    int32
	kind    network.Kind
	next    int32 // free-list link, index+1 (0 terminates)
}

// Typed-event op codes for Engine.HandleEvent. One exchange advances
// through opArrive (frame lands after the hop latency), opResend (ARQ
// retransmit timer), opServe (destination's serial service queue
// reaches the packet); opLocal and opRouteFail are the zero-hop entry
// points for self-sends and unroutable destinations.
const (
	opArrive uint8 = iota
	opResend
	opLocal
	opRouteFail
	opServe
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
	dir, err := pool.NewDirectory(layout, dims, pool.DefaultAlpha, pool.DefaultSide, pivots, src, cfg.replicate)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Directory:    dir,
		layout:       layout,
		router:       router,
		net:          net,
		sched:        sched,
		hopLatency:   DefaultHopLatency,
		store:        make([]map[pool.Key][]event.Event, layout.N()),
		stored:       make([]int, layout.N()),
		repairs:      make(map[int]*repairRun),
		elects:       make(map[pool.CellID]*electTask),
		xfers:        make(map[pool.Key]*xferTask),
		transferring: make(map[pool.Key]bool),
		repairHist:   stats.NewIntHistogram(),
		ops:          make(map[uint64]*operation),
		tracer:       cfg.tracer,
	}
	e.hid = sched.Register(e)
	for i := range e.store {
		e.store[i] = make(map[pool.Key][]event.Event)
	}
	if cfg.replicate {
		e.mirrorStore = make(map[pool.Key][]event.Event)
	}
	return e, nil
}

// EnableMetrics registers the engine's live metrics on reg: a per-node
// mailbox-depth gauge (packets scheduled toward a node that have not yet
// been delivered), insert/query counters, a function-backed gauge over
// in-flight operations and repairs, the repair-latency histogram, and a
// transport-error counter. A nil registry is a no-op.
func (e *Engine) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	e.mMailbox = reg.GaugeVec("node_mailbox_depth", "packets in flight toward each node", "node",
		metrics.NodeLabels(e.layout.N()))
	e.mInserts = reg.Counter("node_inserts_total", "inserts injected into the actor engine")
	e.mQueries = reg.Counter("node_queries_total", "queries injected into the actor engine")
	e.mSendErrs = reg.Counter("node_send_errors_total", "sends aborted by transport errors")
	reg.GaugeFunc("node_inflight_ops", "operations awaiting completion",
		func() float64 { return float64(len(e.ops)) })
	reg.GaugeFunc("node_repairs_inflight", "crashed nodes whose repair exchanges are still in flight",
		func() float64 { return float64(len(e.repairs)) })
	reg.HistogramOf("node_repair_latency_ms", "crash-to-convergence latency of message-driven repairs",
		e.repairHist)
	reg.NodeGaugeFunc("node_stored_events", "events held per actor node", e.layout.N(),
		func(i int) float64 {
			var n float64
			for _, evs := range e.store[i] {
				n += float64(len(evs))
			}
			return n
		})
}

// within runs fn immediately with span as the ambient tracer span.
func (e *Engine) within(span uint64, fn func()) {
	if e.tracer == nil || span == 0 {
		fn()
		return
	}
	e.tracer.PushSpan(span)
	fn()
	e.tracer.PopSpan()
}

// Errors returns non-degradable transport errors recorded during the
// run (nil when the run was clean). Degradable failures — dead radios,
// partitions, exhausted hop budgets — are not errors: they feed the
// operation-level retry and completeness machinery instead.
func (e *Engine) Errors() []error { return e.errs }

// send moves a packet from one node to another hop by hop; each hop is a
// scheduled radio transmission with per-hop link-layer retransmission
// (the same dcs.DefaultMaxRetransmissions budget the synchronous
// unicast applies). Exactly one of deliver or fail runs: deliver at the
// destination when the last hop lands, fail at the virtual time the
// exchange is known lost — the route is unreachable, a dead radio
// blocks a hop, or a hop exhausts its retry budget. A nil fail drops
// degradable losses silently (the caller has no retry policy); a
// non-degradable fault is always recorded in Errors.
func (e *Engine) send(from, to int, kind network.Kind, size int, deliver func(), fail func(error)) {
	// The exchange belongs to whatever span is ambient at send time;
	// every typed continuation re-enters it so per-hop records and
	// downstream sends attribute correctly.
	e.mMailbox.Add(to, 1)
	ti := e.allocTask()
	t := &e.tasks[ti]
	t.span = e.tracer.CurrentSpan()
	t.to = int32(to)
	t.kind, t.size = kind, int32(size)
	t.deliver, t.fail = deliver, fail
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
	ti := int32(a)
	t := &e.tasks[ti]
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
			if int(t.attempt) >= dcs.DefaultMaxRetransmissions {
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
	t := &e.tasks[ti]
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
		if int(t.attempt) >= dcs.DefaultMaxRetransmissions {
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
		if int(t.attempt) >= dcs.DefaultMaxRetransmissions {
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
	t := &e.tasks[ti]
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
	t := &e.tasks[ti]
	to := int(t.to)
	if !e.net.Alive(to) {
		e.failTask(ti, fmt.Errorf("node: %d died with the packet queued: %w", to, dcs.ErrUnreachable))
		return
	}
	e.mMailbox.Add(to, -1)
	deliver := t.deliver
	e.freeTask(ti)
	if deliver != nil {
		deliver()
	}
}

// failTask settles an exchange as lost at the current virtual time,
// recycling its task before the caller's fail policy runs so recursive
// sends reuse the slot.
func (e *Engine) failTask(ti int32, err error) {
	t := &e.tasks[ti]
	e.mMailbox.Add(int(t.to), -1)
	e.mSendErrs.Inc()
	if !dcs.IsDegradable(err) {
		e.errs = append(e.errs, err)
	}
	fail := t.fail
	e.freeTask(ti)
	if fail != nil {
		fail(err)
	}
}

// allocTask takes a task slot off the free list, growing the arena when
// none are free.
func (e *Engine) allocTask() int32 {
	if e.taskFree != 0 {
		ti := e.taskFree - 1
		e.taskFree = e.tasks[ti].next
		return ti
	}
	e.tasks = append(e.tasks, sendTask{})
	return int32(len(e.tasks) - 1)
}

// freeTask recycles a task slot, dropping callback and error references
// but keeping the path buffer for route reuse.
func (e *Engine) freeTask(ti int32) {
	t := &e.tasks[ti]
	t.deliver, t.fail, t.err = nil, nil, nil
	t.next = e.taskFree
	e.taskFree = ti + 1
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
	e.mInserts.Inc()
	span := e.tracer.BeginAt(e.tracer.CurrentSpan(), trace.OpInsert, origin, "")
	var fail func(error)
	if span != 0 {
		fail = func(error) { e.tracer.EndSpan(span) }
	}
	e.within(span, func() {
		e.send(origin, index, network.KindInsert, dcs.EventBytes(e.Dims()), func() {
			e.storeEvent(key, index, ev, true)
			e.tracer.EndSpan(span)
			if done != nil {
				done()
			}
		}, fail)
	})
	return nil
}

// Preload stores an event synchronously through global knowledge — no
// packets, no virtual time — so experiments can load a population
// before the clock starts. Placement, storage, and mirror election are
// identical to a drained Insert; only the radio traffic is skipped.
func (e *Engine) Preload(origin int, ev event.Event) error {
	key, index, err := e.Place(origin, ev)
	if err != nil {
		return err
	}
	e.storeEvent(key, index, ev, false)
	return nil
}

// storeEvent lands an event at its primary holder and mirrors it when
// replication is on, electing the mirror on first use with the same
// rule as the synchronous mirrorEvent (the directory's ElectMirror).
// viaRadio selects whether the mirror copy is a real
// exchange or a preload-time bookkeeping write.
func (e *Engine) storeEvent(key pool.Key, index int, ev event.Event, viaRadio bool) {
	e.store[index][key] = append(e.store[index][key], ev)
	e.stored[index]++
	mirror := e.ElectMirror(key, index)
	if mirror < 0 {
		return
	}
	if !viaRadio {
		e.mirrorStore[key] = append(e.mirrorStore[key], ev)
		return
	}
	e.send(index, mirror, network.KindInsert, dcs.EventBytes(e.Dims()), func() {
		e.mirrorStore[key] = append(e.mirrorStore[key], ev)
	}, nil)
}

// Query issues a range query at the sink. onDone fires when the last pool
// reply lands, with the gathered results and the elapsed virtual time.
func (e *Engine) Query(sink int, q event.Query, onDone func(results []event.Event, elapsed time.Duration)) error {
	var wrapped func([]event.Event, dcs.Completeness, time.Duration)
	if onDone != nil {
		wrapped = func(results []event.Event, _ dcs.Completeness, elapsed time.Duration) {
			onDone(results, elapsed)
		}
	}
	return e.QueryWithReport(sink, q, wrapped)
}

// QueryWithReport is Query plus a dcs.Completeness report, resolved
// with the same splitter fan-out, retry, and graceful-degradation
// policy as the synchronous pool.System.QueryWithReport — but
// message-driven: an unreachable splitter is retried once through the
// next-closest index node, an unreachable cell once through its mirror
// (or re-attempted), each reply leg once, and a lost aggregate reply
// demotes the cells whose matches it carried. A cell whose mirror
// transfer is still in flight after a repair serves whatever slice has
// arrived and is reported unreached — the measured completeness dips
// until the transfer converges.
func (e *Engine) QueryWithReport(sink int, q event.Query, onDone func(results []event.Event, comp dcs.Completeness, elapsed time.Duration)) error {
	var plan pool.Plan
	if err := e.Resolve(q, &plan); err != nil {
		return err
	}
	rq := plan.Query
	e.seq++
	op := &operation{
		id:      e.seq,
		sink:    sink,
		span:    e.tracer.BeginAt(e.tracer.CurrentSpan(), trace.OpQuery, sink, ""),
		started: e.sched.Now(),
		onDone:  onDone,
	}
	e.ops[op.id] = op

	e.mQueries.Inc()
	op.poolsLeft = len(plan.Fanouts)
	op.comp.CellsTotal = plan.NumCells()
	if len(plan.Fanouts) == 0 {
		e.sched.After(0, func() { e.finish(op) })
		return nil
	}
	for _, f := range plan.Fanouts {
		f := f
		e.within(op.span, func() { e.startPool(op, f.Pool, f.Cells, rq) })
	}
	return nil
}

// startPool launches one pool's fan-out: sink → splitter, with the
// one-retry alternate-splitter policy on failure.
func (e *Engine) startPool(op *operation, p pool.Pool, cells []pool.CellID, rq event.Query) {
	qBytes := dcs.QueryBytes(e.Dims())
	splitter := e.SplitterFor(p, op.sink)
	e.send(op.sink, splitter, network.KindQuery, qBytes, func() {
		e.runSplitter(op, p, splitter, cells, rq)
	}, func(error) {
		// The splitter timed out: retry once through the Pool's
		// next-closest index node.
		alt := e.AlternateSplitter(p, op.sink, splitter)
		if alt < 0 {
			e.poolUnreached(op, p, cells)
			return
		}
		op.comp.Retries++
		r := e.tracer.BeginAt(op.span, trace.OpRetry, op.sink, "alt-splitter")
		e.within(r, func() {
			e.send(op.sink, alt, network.KindQuery, qBytes, func() {
				e.tracer.EndSpan(r)
				e.within(op.span, func() { e.runSplitter(op, p, alt, cells, rq) })
			}, func(error) {
				e.tracer.EndSpan(r)
				e.within(op.span, func() { e.poolUnreached(op, p, cells) })
			})
		})
	})
}

// poolUnreached abandons a whole pool's fan-out: every relevant cell
// goes unreached.
func (e *Engine) poolUnreached(op *operation, p pool.Pool, cells []pool.CellID) {
	for _, c := range cells {
		op.comp.Unreached = append(op.comp.Unreached, pool.CellLabel(p.Dim, c))
	}
	e.poolDone(op)
}

// runSplitter executes the splitter role: fan the query out to every
// relevant cell and gather one reply (possibly empty — the ack that makes
// completion detectable) from each.
func (e *Engine) runSplitter(op *operation, p pool.Pool, splitter int, cells []pool.CellID, rq event.Query) {
	g := &gather{splitter: splitter, cellsLeft: len(cells)}
	for _, c := range cells {
		e.queryCellVia(op, g, p, c, rq)
	}
}

// queryCellVia queries one cell through the splitter: one retry on
// failure, preferring the cell's mirror when replication keeps an alive
// copy, otherwise re-attempting the primary — the synchronous
// queryCellVia policy, message by message.
func (e *Engine) queryCellVia(op *operation, g *gather, p pool.Pool, c pool.CellID, rq event.Query) {
	qBytes := dcs.QueryBytes(e.Dims())
	key := pool.Key{Dim: p.Dim, Cell: c}
	index := e.IndexNode(c)
	e.send(g.splitter, index, network.KindQuery, qBytes, func() {
		e.serveCell(op, g, p, c, key, index, false, rq)
	}, func(error) {
		op.comp.Retries++
		if m, ok := e.MirrorFor(key, index); ok {
			r := e.tracer.BeginAt(op.span, trace.OpRetry, g.splitter, "mirror")
			e.within(r, func() {
				e.send(g.splitter, m, network.KindQuery, qBytes, func() {
					e.tracer.EndSpan(r)
					e.within(op.span, func() { e.serveCell(op, g, p, c, key, m, true, rq) })
				}, func(error) {
					e.tracer.EndSpan(r)
					e.within(op.span, func() { e.cellUnreached(op, g, p, c) })
				})
			})
			return
		}
		// No mirror: back off and re-attempt the primary once.
		r := e.tracer.BeginAt(op.span, trace.OpRetry, g.splitter, "primary")
		e.within(r, func() {
			e.send(g.splitter, index, network.KindQuery, qBytes, func() {
				e.tracer.EndSpan(r)
				e.within(op.span, func() { e.serveCell(op, g, p, c, key, index, false, rq) })
			}, func(error) {
				e.tracer.EndSpan(r)
				e.within(op.span, func() { e.cellUnreached(op, g, p, c) })
			})
		})
	})
}

// serveCell runs at the queried node: filter the store (or the mirror
// copy), then return the reply to the splitter, retrying the leg once.
// A cell whose restore transfer is still streaming serves its partial
// slice but is reported unreached (degraded completeness).
func (e *Engine) serveCell(op *operation, g *gather, p pool.Pool, c pool.CellID, key pool.Key, target int, useMirror bool, rq event.Query) {
	var held []event.Event
	partial := false
	if useMirror {
		held = e.mirrorStore[key]
	} else {
		held, partial = e.store[target][key], e.transferring[key]
	}
	e.matchBuf = rq.AppendMatches(e.matchBuf[:0], held)
	matches := event.CloneEvents(e.matchBuf)
	reply := dcs.ReplyBytes(e.Dims(), len(matches))
	deliver := func() { e.cellServed(op, g, p, c, matches, partial) }
	e.send(target, g.splitter, network.KindReply, reply, deliver, func(error) {
		op.comp.Retries++
		r := e.tracer.BeginAt(op.span, trace.OpRetry, target, "reply")
		e.within(r, func() {
			e.send(target, g.splitter, network.KindReply, reply, func() {
				e.tracer.EndSpan(r)
				e.within(op.span, deliver)
			}, func(error) {
				e.tracer.EndSpan(r)
				e.within(op.span, func() { e.cellUnreached(op, g, p, c) })
			})
		})
	})
}

// cellServed lands one cell's reply at the splitter.
func (e *Engine) cellServed(op *operation, g *gather, p pool.Pool, c pool.CellID, matches []event.Event, partial bool) {
	g.results = append(g.results, matches...)
	if partial {
		op.comp.Unreached = append(op.comp.Unreached, pool.CellLabel(p.Dim, c))
	} else {
		g.served = append(g.served, servedCell{cell: c, matches: len(matches)})
	}
	g.cellsLeft--
	if g.cellsLeft == 0 {
		e.finishPool(op, g, p)
	}
}

// cellUnreached records one cell lost through the retry policy.
func (e *Engine) cellUnreached(op *operation, g *gather, p pool.Pool, c pool.CellID) {
	op.comp.Unreached = append(op.comp.Unreached, pool.CellLabel(p.Dim, c))
	g.cellsLeft--
	if g.cellsLeft == 0 {
		e.finishPool(op, g, p)
	}
}

// finishPool returns the splitter's aggregate reply to the sink,
// retrying once; a double failure demotes the served cells whose
// matches the lost reply carried (empty cells still count reached, as
// in the fault-free protocol).
func (e *Engine) finishPool(op *operation, g *gather, p pool.Pool) {
	reply := dcs.ReplyBytes(e.Dims(), len(g.results))
	success := func() {
		// The merge marker: from here to span end the sink is folding
		// pool replies together.
		e.tracer.Record(trace.TypeReply, op.sink, len(g.results), "")
		op.comp.CellsReached += len(g.served)
		op.results = append(op.results, g.results...)
		e.poolDone(op)
	}
	demote := func() {
		for _, sc := range g.served {
			if sc.matches > 0 {
				op.comp.Unreached = append(op.comp.Unreached, pool.CellLabel(p.Dim, sc.cell))
			} else {
				op.comp.CellsReached++
			}
		}
		e.poolDone(op)
	}
	e.send(g.splitter, op.sink, network.KindReply, reply, success, func(error) {
		op.comp.Retries++
		r := e.tracer.BeginAt(op.span, trace.OpRetry, g.splitter, "reply")
		e.within(r, func() {
			e.send(g.splitter, op.sink, network.KindReply, reply, func() {
				e.tracer.EndSpan(r)
				e.within(op.span, success)
			}, func(error) {
				e.tracer.EndSpan(r)
				e.within(op.span, demote)
			})
		})
	})
}

// poolDone retires one pool of the fan-out, finishing the operation
// when it was the last.
func (e *Engine) poolDone(op *operation) {
	op.poolsLeft--
	if op.poolsLeft == 0 {
		e.finish(op)
	}
}

func (e *Engine) finish(op *operation) {
	e.tracer.EndSpan(op.span)
	delete(e.ops, op.id)
	if op.onDone != nil {
		op.onDone(op.results, op.comp, e.sched.Now()-op.started)
	}
}

// StorageLoad implements dcs.StorageReporter: events currently held by
// each node as primary (mirror copies excluded, matching pool.System).
func (e *Engine) StorageLoad() []int {
	out := make([]int, len(e.stored))
	copy(out, e.stored)
	return out
}
