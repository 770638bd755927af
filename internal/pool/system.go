package pool

import (
	"fmt"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
)

// Configuration values from the paper's §5.1 simulation model.
const (
	// Alpha is the cell side length α in metres.
	Alpha = 5
	// DefaultSide is the Pool side length l in cells (WithPoolSide).
	DefaultSide = 10
)

// config collects construction options.
type config struct {
	side      int
	pivots    []CellID
	quota     int // per-node storage quota before delegation; 0 disables sharing
	replicate bool
	tracer    *trace.Tracer
	reg       *metrics.Registry
}

// Option configures New.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithPoolSide overrides the Pool side length l in cells (default 10).
func WithPoolSide(side int) Option {
	return optionFunc(func(c *config) { c.side = side })
}

// WithWorkloadSharing enables the §4.2 workload-sharing mechanism: when a
// cell's active storage segment reaches quota events, its index node
// delegates further storage to an under-loaded neighbour, keeping a
// directory of delegates. Per-node storage stays bounded under skewed
// event distributions at the price of a short extra hop when inserting
// into or querying a delegated segment.
func WithWorkloadSharing(quota int) Option {
	return optionFunc(func(c *config) { c.quota = quota })
}

// WithTracer attaches a structured-event tracer: inserts and queries run
// inside spans, with placement, splitter fan-out, cell resolve, reply
// aggregation, notification, and fault events recorded. Pair it with
// network.WithTracer on the same tracer so per-hop records land inside
// the operation spans.
func WithTracer(t *trace.Tracer) Option {
	return optionFunc(func(c *config) { c.tracer = t })
}

// WithMetrics registers the system's live metrics on reg: insert/query
// counters, the per-query cell fan-out histogram, per-node splitter load,
// and function-backed gauges over stored events and delegations. A nil
// registry attaches nothing and the instrumented paths stay free.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(c *config) { c.reg = reg })
}

// System is a Pool DCS instance over one network.
type System struct {
	// Directory is the deployment-shared Pool state and the rules over it:
	// grid, Pools, index nodes, membership, mirrors (directory.go).
	*Directory
	// Store is what the cells hold and the only writer of it (store.go).
	*Store

	net    *network.Network
	router *gpsr.Router

	quota int
	// delegations counts workload-sharing segment creations.
	delegations int

	// arq is the options of every routed (ARQ) unicast: its PathBuf
	// points at pathBuf so route paths reuse one backing array.
	// legs is arq with the System's leg table, for a walk's legs between
	// a splitter and the cells it fans out to (dcs.Legs).
	arq, legs dcs.TxOptions
	// pathBuf, plan, servedBuf, and replyBuf are the scratch of the
	// operation in progress — plan is what walk walks — reused across
	// operations. A System is single-goroutine, so plain fields suffice.
	pathBuf   []int
	plan      Plan
	servedBuf []servedCell
	// replyBuf gathers the matches of the operation in progress: every leg
	// appends into it and reports a count, a leg whose reply is lost
	// truncates it back to the mark taken before that leg, and a query's
	// caller gets one exact-size copy. The buffer itself never leaves the
	// System.
	replyBuf []event.Event

	// tracer records structured events; nil disables tracing.
	tracer *trace.Tracer

	// recoveryMsgs counts the messages FailNode spends (faults.go).
	recoveryMsgs uint64

	// Operation counts, which the metric families view: events
	// inserted, queries answered, the retry unicasts and relevant cells
	// of those queries, and the per-Pool fan-outs each node served as
	// splitter.
	inserts, queries, retries uint64
	fanout                    *stats.IntHistogram
	splitterLegs              []uint64

	// pairs is ReplicaPairs' list, rebuilt in place on every call.
	pairs []antientropy.Pair

	// Continuous-query state (continuous.go).
	subs    [][]*Subscription // by Key slot
	subSeq  uint64
	pending []Notification
}

var _ dcs.System = (*System)(nil)

// New builds a Pool system for events of the given dimensionality. Pivot
// cells are placed randomly (non-overlapping where possible) using src,
// matching the paper's random pivot placement.
func New(net *network.Network, router *gpsr.Router, dims int, src *rng.Source, opts ...Option) (*System, error) {
	cfg := config{side: DefaultSide}
	for _, o := range opts {
		o.apply(&cfg)
	}
	layout := net.Layout()
	dir, err := NewDirectory(layout, dims, cfg.side, cfg.pivots, src, cfg.replicate)
	if err != nil {
		return nil, err
	}
	s := &System{
		Directory:    dir,
		Store:        NewStore(dir),
		subs:         make([][]*Subscription, dir.numSlots()),
		net:          net,
		router:       router,
		quota:        cfg.quota,
		tracer:       cfg.tracer,
		fanout:       stats.NewIntHistogram(),
		splitterLegs: make([]uint64, layout.N()),
		// Sized here so the first query allocates no more than a later one.
		plan: Plan{Fanouts: make([]Fanout, 0, dims)},
	}
	s.arq.PathBuf = &s.pathBuf
	s.legs = s.arq
	s.legs.Legs = dcs.NewLegs(router)
	if cfg.reg != nil {
		s.enableMetrics(cfg.reg)
	}
	return s, nil
}

// enableMetrics registers the system's metric families (WithMetrics).
func (s *System) enableMetrics(reg *metrics.Registry) {
	n := s.net.Layout().N()
	reg.CounterFunc("pool_inserts_total", "events stored through Pool", func() float64 { return float64(s.inserts) })
	reg.CounterFunc("pool_queries_total", "range queries resolved by Pool", func() float64 { return float64(s.queries) })
	reg.CounterFunc("pool_query_retries_total", "extra unicasts spent by the query failure policy",
		func() float64 { return float64(s.retries) })
	reg.HistogramOf("pool_query_fanout_cells", "relevant cells addressed per query", s.fanout)
	reg.CounterVecFunc("pool_splitter_queries_total", "per-Pool fan-outs served by each node as splitter",
		"node", metrics.NodeLabels(n), func(i int) uint64 { return s.splitterLegs[i] })
	reg.NodeGaugeFunc("pool_stored_events", "events held per node (delegated segments included)", n,
		func(i int) float64 { return float64(s.Stored(i)) })
	reg.CounterFunc("pool_delegations_total", "workload-sharing segments opened beyond the index nodes",
		func() float64 { return float64(s.delegations) })
	reg.CounterFunc("pool_recovery_messages_total", "messages spent restoring state after node failures",
		func() float64 { return float64(s.recoveryMsgs) })
}

// unicast routes a payload between two nodes, applying the system's ARQ
// retransmission budget. Every routed exchange in the package goes
// through here or through exchange.
func (s *System) unicast(from, to int, kind network.Kind, payloadBytes int) (int, error) {
	return dcs.UnicastOpts(s.net, s.router, from, to, kind, payloadBytes, s.arq)
}

// exchange is a unicast with opts (s.arq, or s.legs between a splitter
// and a cell) under the failure policy of dcs.Exchange.
func (s *System) exchange(from, to int, kind network.Kind, payloadBytes int, opts dcs.TxOptions, comp *dcs.Completeness, retarget func(int) int) (int, error) {
	return dcs.Exchange(s.net, s.router, from, to, kind, payloadBytes, opts, comp, retarget)
}

// Name implements dcs.System.
func (s *System) Name() string { return "Pool" }

// Delegations returns how many workload-sharing storage segments have been
// created beyond the index nodes' own.
func (s *System) Delegations() int { return s.delegations }

// Insert implements dcs.System (Algorithm 1 plus the §4.1 tie rule): the
// event is stored at the cell determined by its greatest and
// second-greatest attribute values; with tied maxima, the candidate cell
// closest to the detecting sensor is chosen and a single copy stored.
func (s *System) Insert(origin int, e event.Event) error {
	key, index, err := s.Place(origin, e)
	if err != nil {
		return err
	}
	payload := dcs.EventBytes(s.dims)
	// The event is routed geographically toward the cell; its index node
	// consumes it on arrival (cell membership and the index role are
	// cell-local knowledge, so no home-node probe is needed — §2).
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpInsert, origin, "")
		defer s.tracer.End()
		s.tracer.Record(trace.TypePlace, index, key.Dim, CellLabel(key.Dim, key.Cell))
	}
	if _, err := s.unicast(origin, index, network.KindInsert, payload); err != nil {
		return fmt.Errorf("pool: insert: %w", err)
	}
	s.inserts++
	return s.storeEvent(key, index, e, payload)
}

// storeEvent places the event into the cell's active storage segment,
// opening a delegated segment first when workload sharing demands it.
func (s *System) storeEvent(key Key, index int, e event.Event, payload int) error {
	node, held := s.Active(key, index)
	delegate := s.quota > 0 && held >= s.quota
	if delegate {
		node = s.pickDelegate(index, node)
		// Establishing the delegation is one control exchange.
		if _, err := s.unicast(index, node, network.KindControl, dcs.QueryBytes(s.dims)); err != nil {
			return fmt.Errorf("pool: delegate setup: %w", err)
		}
		s.delegations++
	}
	if node != index {
		if _, err := s.unicast(index, node, network.KindInsert, payload); err != nil {
			return fmt.Errorf("pool: delegate forward: %w", err)
		}
	}
	if delegate {
		s.AppendSegment(key, node, e)
	} else {
		s.Append(key, node, e)
	}
	if s.replicate {
		if err := s.mirrorEvent(key, index, e, payload); err != nil {
			return err
		}
	}
	return s.notifySubscribers(key, index, e)
}

// mirrorEvent copies a freshly stored event to the cell's mirror node,
// electing the mirror on first use. The unit acked the event when it was
// stored, so a mirror write the radio loses is no insert failure: the
// mirror copy stays behind and does not vouch until repair lands the
// event, as on the actor engine.
func (s *System) mirrorEvent(key Key, index int, e event.Event, payload int) error {
	mirror := s.ElectMirror(key, index)
	if mirror < 0 {
		return nil
	}
	if _, err := s.unicast(index, mirror, network.KindInsert, payload); err != nil {
		if dcs.IsDegradable(err) {
			return nil
		}
		return fmt.Errorf("pool: mirror copy: %w", err)
	}
	s.AppendMirror(key, e)
	return nil
}

// pickDelegate chooses the next storage delegate for an index node: the
// least-loaded radio neighbour, excluding the currently active segment
// holder. Neighbour knowledge is local to the index node.
func (s *System) pickDelegate(index, current int) int {
	layout := s.net.Layout()
	best, bestLoad := -1, 0
	for _, v := range layout.Neighbors(index) {
		if v == current || s.dead[v] {
			continue
		}
		if best < 0 || s.Stored(v) < bestLoad {
			best, bestLoad = v, s.Stored(v)
		}
	}
	if best < 0 {
		// An index node with no other neighbour keeps the load itself.
		return index
	}
	return best
}

// RelevantCells returns, per Pool, the cells relevant to q after the §2
// partial-match rewrite — the paper's Figures 4 and 5. A query the system
// would reject has none.
func (s *System) RelevantCells(q event.Query) map[int][]CellID {
	var plan Plan
	if err := s.Resolve(q, &plan); err != nil {
		return nil
	}
	out := make(map[int][]CellID, len(plan.Fanouts))
	for _, f := range plan.Fanouts {
		out[f.Pool.Dim] = f.Cells
	}
	return out
}

// Query implements dcs.System: the query is resolved with Theorem 3.2 and
// forwarded through one splitter per Pool to every relevant cell; replies
// converge back through the splitters (§3.2.3). Under node failures the
// query degrades gracefully — unreachable cells are skipped after one
// retry and the matching events that could be gathered are returned; use
// QueryWithReport to learn how complete the answer is.
func (s *System) Query(sink int, q event.Query) ([]event.Event, error) {
	results, _, err := s.QueryWithReport(sink, q)
	return results, err
}

// QueryWithReport is Query plus a Completeness report: how many relevant
// cells the fan-out addressed, how many were actually served (query
// delivered and reply returned), which were left unreached, and how many
// retry unicasts were spent. An incomplete answer is not an error — the
// error return covers only malformed queries and programming faults.
func (s *System) QueryWithReport(sink int, q event.Query) ([]event.Event, dcs.Completeness, error) {
	var comp dcs.Completeness
	if err := s.Resolve(q, &s.plan); err != nil {
		return nil, comp, err
	}
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpQuery, sink, "")
		defer s.tracer.End()
	}
	// Every cell with matches sends them to its splitter, every splitter
	// that was sent any forwards them to the sink, and what arrives stays
	// in replyBuf.
	err := s.walk(sink, visitor{
		kind: network.KindQuery, traced: traceFull,
		cell: func(key Key, node int, mirror bool) (int, int, bool, error) {
			n, partial := s.gather(key, node, mirror)
			return n, s.eventsBytes(n), partial, nil
		},
		sink: s.eventsBytes,
	}, &comp)
	if err != nil {
		return nil, comp, err
	}
	s.queries++
	s.retries += uint64(comp.Retries)
	s.fanout.Add(int64(comp.CellsTotal))
	return event.CloneEvents(s.replyBuf), comp, nil
}

// CellLabel formats the human-readable id of one Pool cell for
// completeness reports. Exported so the node actor engine labels
// unreached cells identically to the synchronous spec.
func CellLabel(dim int, c CellID) string { return fmt.Sprintf("P%d %v", dim, c) }

// gather is what a queried node does for a cell: it appends the matches it
// ends up holding to replyBuf and returns their count, and whether they
// are partial — the copy served does not vouch for the key, or a slice of
// it never came back. A mirror answers from its copy; an index node scans
// every storage segment of the cell. Delegated segments cost an extra
// query/reply exchange between the index node and the delegate; a
// delegate that became unreachable is skipped, losing its slice.
func (s *System) gather(key Key, node int, mirror bool) (n int, partial bool) {
	rq, start := s.plan.Query, len(s.replyBuf)
	partial = !s.Vouches(key, mirror)
	if mirror {
		s.replyBuf = s.AppendMirrorMatches(s.replyBuf, rq, key)
		return len(s.replyBuf) - start, partial
	}
	segs := s.Segments(key)
	for j := range segs {
		seg := &segs[j]
		if seg.Node != node {
			if _, err := s.unicast(node, seg.Node, network.KindQuery, dcs.QueryBytes(s.dims)); err != nil {
				partial = true
				continue
			}
		}
		mark := len(s.replyBuf)
		s.replyBuf = seg.Rows.AppendMatches(s.replyBuf, rq)
		segMatches := len(s.replyBuf) - mark
		if segMatches == 0 || seg.Node == node {
			continue
		}
		if _, err := s.unicast(seg.Node, node, network.KindReply,
			dcs.ReplyBytes(s.dims, segMatches)); err != nil {
			// The delegate's reply never reached the index node.
			s.replyBuf = s.replyBuf[:mark]
			partial = true
		}
	}
	return len(s.replyBuf) - start, partial
}
