package pool

import (
	"fmt"
	"math"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

// Default configuration values from the paper's §5.1 simulation model.
const (
	// DefaultAlpha is the cell side length α in metres.
	DefaultAlpha = 5
	// DefaultSide is the Pool side length l in cells.
	DefaultSide = 10
)

// config collects construction options.
type config struct {
	alpha     float64
	side      int
	pivots    []CellID
	quota     int // per-node storage quota before delegation; 0 disables sharing
	replicate bool
	tracer    *trace.Tracer
	arq       dcs.TxOptions
	reg       *metrics.Registry
}

// Option configures New.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithCellSize overrides the cell side length α (default 5 m).
func WithCellSize(alpha float64) Option {
	return optionFunc(func(c *config) { c.alpha = alpha })
}

// WithPoolSide overrides the Pool side length l in cells (default 10).
func WithPoolSide(side int) Option {
	return optionFunc(func(c *config) { c.side = side })
}

// WithPivots pins the Pool pivot cells instead of placing them randomly.
// One pivot per event dimension is required.
func WithPivots(pivots []CellID) Option {
	return optionFunc(func(c *config) { c.pivots = append([]CellID(nil), pivots...) })
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

// WithARQBudget overrides the per-hop link-layer retransmission budget
// for every routed unicast the system issues (default
// dcs.DefaultMaxRetransmissions).
func WithARQBudget(n int) Option {
	return optionFunc(func(c *config) { c.arq = dcs.TxOptions{MaxRetransmissions: n} })
}

// WithMetrics registers the system's live metrics on reg: insert/query
// counters, the per-query cell fan-out histogram, per-node splitter load,
// and function-backed gauges over stored events and delegations. A nil
// registry attaches nothing and the instrumented paths stay free.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(c *config) { c.reg = reg })
}

// storeKey addresses the storage of one cell of one Pool.
type storeKey struct {
	dim  int // 1-based Pool dimension
	cell CellID
}

// segment is one slab of a cell's storage, held by one node. The first
// segment lives at the cell's index node; workload sharing appends
// segments at delegate nodes.
type segment struct {
	node   int
	events []event.Event
}

// System is a Pool DCS instance over one network.
type System struct {
	net    *network.Network
	router *gpsr.Router
	grid   *Grid
	pools  []Pool
	dims   int

	// holder maps each Pool cell to its index node — the node closest to
	// the cell centre (§2), which fields all traffic for the cell.
	holder map[CellID]int
	// splitters memoises SplitterFor over holder; FailNode's re-election
	// loop, the one place a holder changes after construction,
	// invalidates it.
	splitters *SplitterMemo
	// store holds the storage segments of each (Pool, cell).
	store map[storeKey][]segment
	// stored counts events held per node, maintained incrementally.
	stored []int

	quota int
	// delegations counts workload-sharing segment creations.
	delegations int

	// arq is the per-hop retransmission budget for routed unicasts; its
	// PathBuf points at pathBuf so route paths reuse one backing array.
	arq dcs.TxOptions
	// pathBuf, cellBuf, and servedBuf are query/insert hot-path scratch,
	// reused across operations. A System is single-goroutine, so plain
	// fields suffice.
	pathBuf   []int
	cellBuf   []CellID
	servedBuf []servedCell

	// tracer records structured events; nil disables tracing.
	tracer *trace.Tracer

	// Replication and failure state (faults.go).
	replicate    bool
	mirrors      map[storeKey]int
	mirrorStore  map[storeKey][]event.Event
	dead         []bool
	recoveryMsgs uint64

	// Continuous-query state (continuous.go).
	subs    map[storeKey][]*Subscription
	subSeq  uint64
	pending []Notification

	// Metric handles (nil when no registry is attached).
	mInserts  *metrics.Counter
	mQueries  *metrics.Counter
	mRetries  *metrics.Counter
	mFanout   *metrics.Histogram
	mSplitter *metrics.CounterVec
}

var _ dcs.System = (*System)(nil)
var _ dcs.StorageReporter = (*System)(nil)

// New builds a Pool system for events of the given dimensionality. Pivot
// cells are placed randomly (non-overlapping where possible) using src,
// matching the paper's random pivot placement, unless WithPivots pins
// them.
func New(net *network.Network, router *gpsr.Router, dims int, src *rng.Source, opts ...Option) (*System, error) {
	if dims < 1 {
		return nil, fmt.Errorf("pool: dimensionality must be ≥ 1, got %d", dims)
	}
	cfg := config{alpha: DefaultAlpha, side: DefaultSide}
	for _, o := range opts {
		o.apply(&cfg)
	}
	layout := net.Layout()
	grid, err := NewGrid(layout.Bounds(), cfg.alpha)
	if err != nil {
		return nil, err
	}
	if grid.Cols < cfg.side || grid.Rows < cfg.side {
		return nil, fmt.Errorf("pool: field of %d×%d cells cannot hold a Pool of side %d",
			grid.Cols, grid.Rows, cfg.side)
	}

	s := &System{
		net:       net,
		router:    router,
		grid:      grid,
		dims:      dims,
		holder:    make(map[CellID]int),
		store:     make(map[storeKey][]segment),
		stored:    make([]int, layout.N()),
		quota:     cfg.quota,
		tracer:    cfg.tracer,
		replicate: cfg.replicate,
		arq:       cfg.arq,
		dead:      make([]bool, layout.N()),
	}
	s.arq.PathBuf = &s.pathBuf
	if s.replicate {
		s.mirrors = make(map[storeKey]int)
		s.mirrorStore = make(map[storeKey][]event.Event)
	}

	pivots := cfg.pivots
	if pivots == nil {
		if src == nil {
			return nil, fmt.Errorf("pool: random pivot placement requires a rng source")
		}
		pivots = placePivots(grid, dims, cfg.side, src)
	}
	if len(pivots) != dims {
		return nil, fmt.Errorf("pool: %d pivots for %d dimensions", len(pivots), dims)
	}
	for i, pc := range pivots {
		if pc.X < 0 || pc.Y < 0 || pc.X+cfg.side > grid.Cols || pc.Y+cfg.side > grid.Rows {
			return nil, fmt.Errorf("pool: pivot %v does not fit a Pool of side %d in a %d×%d grid",
				pc, cfg.side, grid.Cols, grid.Rows)
		}
		s.pools = append(s.pools, Pool{Dim: i + 1, Pivot: pc, Side: cfg.side})
	}

	// Designate index nodes: the node closest to each Pool cell's centre.
	for _, p := range s.pools {
		for _, c := range p.Cells() {
			if _, ok := s.holder[c]; !ok {
				s.holder[c] = layout.Nearest(grid.Center(c))
			}
		}
	}
	s.splitters = NewSplitterMemo(layout, s.pools, s.holder)
	if cfg.reg != nil {
		s.enableMetrics(cfg.reg)
	}
	return s, nil
}

// enableMetrics registers the system's metric families (WithMetrics).
func (s *System) enableMetrics(reg *metrics.Registry) {
	n := s.net.Layout().N()
	s.mInserts = reg.Counter("pool_inserts_total", "events stored through Pool")
	s.mQueries = reg.Counter("pool_queries_total", "range queries resolved by Pool")
	s.mRetries = reg.Counter("pool_query_retries_total", "extra unicasts spent by the query failure policy")
	s.mFanout = reg.Histogram("pool_query_fanout_cells", "relevant cells addressed per query")
	s.mSplitter = reg.NodeCounter("pool_splitter_queries_total", "per-Pool fan-outs served by each node as splitter", n)
	reg.NodeGaugeFunc("pool_stored_events", "events held per node (delegated segments included)", n,
		func(i int) float64 { return float64(s.stored[i]) })
	reg.CounterFunc("pool_delegations_total", "workload-sharing segments opened beyond the index nodes",
		func() float64 { return float64(s.delegations) })
	reg.CounterFunc("pool_recovery_messages_total", "messages spent restoring state after node failures",
		func() float64 { return float64(s.recoveryMsgs) })
}

// placePivots draws random pivot cells, preferring a placement where the
// Pools do not overlap (as in the paper's Figure 2); after 200 attempts it
// accepts overlap.
func placePivots(grid *Grid, dims, side int, src *rng.Source) []CellID {
	maxX := grid.Cols - side
	maxY := grid.Rows - side
	var pivots []CellID
	for attempt := 0; attempt < 200; attempt++ {
		pivots = make([]CellID, dims)
		ok := true
		for i := range pivots {
			pivots[i] = CellID{X: src.Intn(maxX + 1), Y: src.Intn(maxY + 1)}
			for j := 0; j < i; j++ {
				if overlaps(pivots[i], pivots[j], side) {
					ok = false
				}
			}
		}
		if ok {
			break
		}
	}
	return pivots
}

func overlaps(a, b CellID, side int) bool {
	return a.X < b.X+side && b.X < a.X+side && a.Y < b.Y+side && b.Y < a.Y+side
}

// unicast routes a payload between two nodes, applying the system's ARQ
// retransmission budget. Every routed exchange in the package goes
// through here.
func (s *System) unicast(from, to int, kind network.Kind, payloadBytes int) (int, error) {
	return dcs.UnicastOpts(s.net, s.router, from, to, kind, payloadBytes, s.arq)
}

// Name implements dcs.System.
func (s *System) Name() string { return "Pool" }

// Dims returns the event dimensionality.
func (s *System) Dims() int { return s.dims }

// Grid returns the cell grid.
func (s *System) Grid() *Grid { return s.grid }

// Pools returns the k Pools. The slice is owned by the system.
func (s *System) Pools() []Pool { return s.pools }

// IndexNode returns the index node of a Pool cell, or -1 for cells outside
// every Pool.
func (s *System) IndexNode(c CellID) int {
	if h, ok := s.holder[c]; ok {
		return h
	}
	return -1
}

// Delegations returns how many workload-sharing storage segments have been
// created beyond the index nodes' own.
func (s *System) Delegations() int { return s.delegations }

// Insert implements dcs.System (Algorithm 1 plus the §4.1 tie rule): the
// event is stored at the cell determined by its greatest and
// second-greatest attribute values; with tied maxima, the candidate cell
// closest to the detecting sensor is chosen and a single copy stored.
func (s *System) Insert(origin int, e event.Event) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	if e.Dims() != s.dims {
		return fmt.Errorf("pool: event has %d dims, system built for %d", e.Dims(), s.dims)
	}
	dims := event.GreatestDims(e)
	originCell := s.grid.CellOf(s.net.Layout().Pos(origin))
	bestDim, bestCell, bestDist := -1, CellID{}, math.Inf(1)
	for _, d := range dims {
		cell := s.pools[d-1].InsertCell(e.Values[d-1], event.SecondGreatest(e, d))
		if dist := CellDist(cell, originCell); dist < bestDist {
			bestDim, bestCell, bestDist = d, cell, dist
		}
	}

	payload := dcs.EventBytes(s.dims)
	// The event is routed geographically toward the cell; its index node
	// consumes it on arrival (cell membership and the index role are
	// cell-local knowledge, so no home-node probe is needed — §2).
	index := s.holder[bestCell]
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpInsert, origin, "")
		defer s.tracer.End()
		s.tracer.Record(trace.TypePlace, index, bestDim, fmt.Sprintf("P%d %v", bestDim, bestCell))
	}
	if _, err := s.unicast(origin, index, network.KindInsert, payload); err != nil {
		return fmt.Errorf("pool: insert: %w", err)
	}
	s.mInserts.Inc()
	return s.storeEvent(storeKey{dim: bestDim, cell: bestCell}, index, e, payload)
}

// storeEvent places the event into the cell's active storage segment,
// opening a delegated segment first when workload sharing demands it.
func (s *System) storeEvent(key storeKey, index int, e event.Event, payload int) error {
	segs := s.store[key]
	if len(segs) == 0 {
		segs = append(segs, segment{node: index})
	}
	active := &segs[len(segs)-1]
	if s.quota > 0 && len(active.events) >= s.quota {
		delegate := s.pickDelegate(index, active.node)
		// Establishing the delegation is one control exchange.
		if _, err := s.unicast(index, delegate, network.KindControl, dcs.QueryBytes(s.dims)); err != nil {
			return fmt.Errorf("pool: delegate setup: %w", err)
		}
		segs = append(segs, segment{node: delegate})
		active = &segs[len(segs)-1]
		s.delegations++
	}
	if active.node != index {
		if _, err := s.unicast(index, active.node, network.KindInsert, payload); err != nil {
			return fmt.Errorf("pool: delegate forward: %w", err)
		}
	}
	active.events = append(active.events, e)
	s.stored[active.node]++
	s.store[key] = segs
	if s.replicate {
		if err := s.mirrorEvent(key, index, e, payload); err != nil {
			return err
		}
	}
	return s.notifySubscribers(key, index, e)
}

// mirrorEvent copies a freshly stored event to the cell's mirror node,
// electing the mirror on first use.
func (s *System) mirrorEvent(key storeKey, index int, e event.Event, payload int) error {
	mirror, ok := s.mirrors[key]
	if !ok {
		mirror = s.nearestAliveTo(s.grid.Center(key.cell), index)
		s.mirrors[key] = mirror
	}
	if mirror < 0 || s.dead[mirror] {
		return nil
	}
	if _, err := s.unicast(index, mirror, network.KindInsert, payload); err != nil {
		return fmt.Errorf("pool: mirror copy: %w", err)
	}
	s.mirrorStore[key] = append(s.mirrorStore[key], e)
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
		if best < 0 || s.stored[v] < bestLoad {
			best, bestLoad = v, s.stored[v]
		}
	}
	if best < 0 {
		// An index node with no other neighbour keeps the load itself.
		return index
	}
	return best
}

// RelevantCells returns, per Pool, the cells relevant to q after the §2
// partial-match rewrite — the paper's Figures 4 and 5.
func (s *System) RelevantCells(q event.Query) map[int][]CellID {
	rq := q.Rewrite()
	out := make(map[int][]CellID, len(s.pools))
	for _, p := range s.pools {
		if cells := p.RelevantCells(rq); len(cells) > 0 {
			out[p.Dim] = cells
		}
	}
	return out
}

// SplitterFor returns the Pool's splitter for a given sink: the Pool's
// index node closest to the sink (§3.2.3). Pools are predefined, so the
// sink computes this locally. Answers are memoised per (Pool, sink) until
// the next re-election (SplitterMemo), so a repeat call is a table lookup
// that returns what the scan over the Pool's cells would.
func (s *System) SplitterFor(p Pool, sink int) int {
	return s.splitters.For(p, sink)
}

// SplitterMemo memoises splitter choice for the synchronous system and
// the node actor engine alike. The Pool index node closest to a sink is a
// pure function of node positions and the owner's holder table: positions
// never change, and the owner calls Invalidate wherever it writes a
// holder.
type SplitterMemo struct {
	layout *field.Layout
	pools  []Pool
	holder map[CellID]int
	// rows[dim-1][sink] is the memoised splitter plus one; 0 is unknown.
	rows [][]int32
}

// NewSplitterMemo returns an empty memo over the owner's Pools and holder
// table (shared, not copied).
func NewSplitterMemo(layout *field.Layout, pools []Pool, holder map[CellID]int) *SplitterMemo {
	m := &SplitterMemo{layout: layout, pools: pools, holder: holder, rows: make([][]int32, len(pools))}
	for i := range m.rows {
		m.rows[i] = make([]int32, layout.N())
	}
	return m
}

// For returns the index node of p closest to sink — ties go to the
// earlier cell in p.Cells() order — or -1 for a Pool without cells. A
// Pool the memo was not built for is scanned every time.
func (m *SplitterMemo) For(p Pool, sink int) int {
	var slot *int32
	if i := p.Dim - 1; i >= 0 && i < len(m.pools) && m.pools[i] == p {
		slot = &m.rows[i][sink]
		if *slot != 0 {
			return int(*slot) - 1
		}
	}
	sinkPos := m.layout.Pos(sink)
	best, bestD2 := -1, math.Inf(1)
	for _, c := range p.Cells() {
		h := m.holder[c]
		if d2 := m.layout.Pos(h).Dist2(sinkPos); d2 < bestD2 {
			best, bestD2 = h, d2
		}
	}
	if slot != nil {
		*slot = int32(best + 1)
	}
	return best
}

// Invalidate forgets every memoised splitter, in place.
func (m *SplitterMemo) Invalidate() {
	for _, row := range m.rows {
		clear(row)
	}
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
	if err := q.Validate(); err != nil {
		return nil, comp, fmt.Errorf("pool: %w", err)
	}
	if q.Dims() != s.dims {
		return nil, comp, fmt.Errorf("pool: query has %d dims, system built for %d", q.Dims(), s.dims)
	}
	rq := q.Rewrite()
	qBytes := dcs.QueryBytes(s.dims)

	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpQuery, sink, "")
		defer s.tracer.End()
	}
	var results []event.Event
	for _, p := range s.pools {
		poolResults, err := s.queryPool(p, sink, rq, qBytes, &comp)
		if err != nil {
			return nil, comp, err
		}
		results = append(results, poolResults...)
	}
	s.mQueries.Inc()
	s.mFanout.Observe(int64(comp.CellsTotal))
	s.mRetries.Add(uint64(comp.Retries))
	return results, comp, nil
}

// degradable reports whether a unicast failure is one graceful
// degradation absorbs; the shared predicate lives in dcs so pool, dim,
// and ght stay in lockstep.
func degradable(err error) bool { return dcs.IsDegradable(err) }

// servedCell records one reached cell of a fan-out and how many matches
// the splitter holds for it, so the final reply leg can demote served
// cells when the aggregate reply is lost.
type servedCell struct {
	cell    CellID
	matches int
}

// CellLabel formats the human-readable id of one Pool cell for
// completeness reports. Exported so the node actor engine labels
// unreached cells identically to the synchronous spec.
func CellLabel(dim int, c CellID) string { return fmt.Sprintf("P%d %v", dim, c) }

// cellLabel is the package-internal shorthand for CellLabel.
func cellLabel(dim int, c CellID) string { return CellLabel(dim, c) }

// queryPool resolves the (rewritten) query against one Pool: the query is
// forwarded through the Pool's splitter to every relevant cell, and the
// replies converge back through the splitter (§3.2.3). When tracing, the
// whole exchange runs inside a fan-out sub-span of the query span.
//
// Failure policy (timeout + one retry, bounded backoff): an unreachable
// splitter is retried once at the next-closest alive index node; an
// unreachable cell is retried once, at the cell's mirror when replication
// provides one; each reply leg is retransmitted once. Cells that stay
// unreachable are recorded in comp and skipped. In a fault-free run the
// traffic is identical, hop for hop, to the pre-degradation protocol.
func (s *System) queryPool(p Pool, sink int, rq event.Query, qBytes int, comp *dcs.Completeness) ([]event.Event, error) {
	cells := p.AppendRelevantCells(s.cellBuf[:0], rq)
	s.cellBuf = cells
	if len(cells) == 0 {
		return nil, nil
	}
	comp.CellsTotal += len(cells)
	unreachedAll := func() {
		for _, c := range cells {
			comp.Unreached = append(comp.Unreached, cellLabel(p.Dim, c))
		}
	}
	splitter := s.SplitterFor(p, sink)
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpFanout, splitter, fmt.Sprintf("P%d", p.Dim))
		defer s.tracer.End()
		s.tracer.Record(trace.TypeFanout, splitter, len(cells), fmt.Sprintf("P%d", p.Dim))
	}
	if _, err := s.unicast(sink, splitter, network.KindQuery, qBytes); err != nil {
		if !degradable(err) {
			return nil, fmt.Errorf("pool: query to splitter: %w", err)
		}
		// The splitter timed out: retry once through the Pool's
		// next-closest index node.
		alt := s.alternateSplitter(p, sink, splitter)
		if alt < 0 {
			unreachedAll()
			return nil, nil
		}
		comp.Retries++
		if _, err := s.unicast(sink, alt, network.KindQuery, qBytes); err != nil {
			if !degradable(err) {
				return nil, fmt.Errorf("pool: query to alternate splitter: %w", err)
			}
			unreachedAll()
			return nil, nil
		}
		splitter = alt
	}
	s.mSplitter.Inc(splitter)
	var poolResults []event.Event
	// served tracks, per reached cell, the matches the splitter holds for
	// it, so the final reply leg can demote them on failure. Labels are
	// formatted only when a cell actually goes unreached — the fault-free
	// path never pays for them.
	served := s.servedBuf[:0]
	for _, c := range cells {
		matches, ok, err := s.queryCellVia(p, storeKey{dim: p.Dim, cell: c}, splitter, rq, qBytes, comp)
		if err != nil {
			s.servedBuf = served
			return nil, err
		}
		if !ok {
			comp.Unreached = append(comp.Unreached, cellLabel(p.Dim, c))
			continue
		}
		served = append(served, servedCell{cell: c, matches: len(matches)})
		poolResults = append(poolResults, matches...)
	}
	s.servedBuf = served
	if len(poolResults) > 0 {
		if s.tracer.Enabled() {
			s.tracer.Record(trace.TypeReply, splitter, len(poolResults), "")
		}
		replyBytes := dcs.ReplyBytes(s.dims, len(poolResults))
		if _, err := s.unicast(splitter, sink, network.KindReply, replyBytes); err != nil {
			if !degradable(err) {
				return nil, fmt.Errorf("pool: reply to sink: %w", err)
			}
			comp.Retries++
			if _, err := s.unicast(splitter, sink, network.KindReply, replyBytes); err != nil {
				if !degradable(err) {
					return nil, fmt.Errorf("pool: reply to sink: %w", err)
				}
				// The aggregate reply never made it back: every cell whose
				// matches it carried goes unserved; silent (empty) cells
				// still count as served, as in the fault-free protocol.
				for _, sc := range served {
					if sc.matches > 0 {
						comp.Unreached = append(comp.Unreached, cellLabel(p.Dim, sc.cell))
					} else {
						comp.CellsReached++
					}
				}
				return nil, nil
			}
		}
	}
	comp.CellsReached += len(served)
	return poolResults, nil
}

// queryCellVia queries one cell through the splitter and returns the
// matches the splitter received, with ok=false when the cell stayed
// unreachable through the retry policy.
func (s *System) queryCellVia(p Pool, key storeKey, splitter int, rq event.Query, qBytes int, comp *dcs.Completeness) (matches []event.Event, ok bool, err error) {
	index := s.holder[key.cell]
	target, useMirror := index, false
	if index != splitter {
		if _, err := s.unicast(splitter, index, network.KindQuery, qBytes); err != nil {
			if !degradable(err) {
				return nil, false, fmt.Errorf("pool: query to cell %v: %w", key.cell, err)
			}
			// The index node timed out: one retry, preferring the cell's
			// mirror when replication provides an alive one.
			comp.Retries++
			if m, hasMirror := s.mirrorFor(key, index); hasMirror {
				if m != splitter {
					if _, err2 := s.unicast(splitter, m, network.KindQuery, qBytes); err2 != nil {
						if !degradable(err2) {
							return nil, false, fmt.Errorf("pool: query to mirror of %v: %w", key.cell, err2)
						}
						return nil, false, nil
					}
				}
				target, useMirror = m, true
			} else {
				// No mirror: back off and re-attempt the primary once.
				if _, err2 := s.unicast(splitter, index, network.KindQuery, qBytes); err2 != nil {
					if !degradable(err2) {
						return nil, false, fmt.Errorf("pool: query to cell %v: %w", key.cell, err2)
					}
					return nil, false, nil
				}
			}
		}
	}
	if useMirror {
		matches = rq.Filter(s.mirrorStore[key])
	} else {
		matches = s.queryCell(key, target, rq, qBytes)
	}
	if s.tracer.Enabled() {
		s.tracer.Record(trace.TypeResolve, target, len(matches), key.cell.String())
	}
	if len(matches) == 0 || target == splitter {
		return matches, true, nil
	}
	replyBytes := dcs.ReplyBytes(s.dims, len(matches))
	if _, err := s.unicast(target, splitter, network.KindReply, replyBytes); err != nil {
		if !degradable(err) {
			return nil, false, fmt.Errorf("pool: reply from cell %v: %w", key.cell, err)
		}
		comp.Retries++
		if _, err := s.unicast(target, splitter, network.KindReply, replyBytes); err != nil {
			if !degradable(err) {
				return nil, false, fmt.Errorf("pool: reply from cell %v: %w", key.cell, err)
			}
			return nil, false, nil
		}
	}
	return matches, true, nil
}

// mirrorFor returns the cell's mirror node when replication keeps an
// alive copy distinct from the (unreachable) index node.
func (s *System) mirrorFor(key storeKey, index int) (int, bool) {
	if !s.replicate {
		return -1, false
	}
	m, elected := s.mirrors[key]
	if !elected || m < 0 || m == index || s.dead[m] {
		return -1, false
	}
	return m, true
}

// alternateSplitter returns the Pool's index node closest to the sink
// among nodes other than avoid, or -1 when the Pool has no other holder.
func (s *System) alternateSplitter(p Pool, sink, avoid int) int {
	layout := s.net.Layout()
	sinkPos := layout.Pos(sink)
	best, bestD2 := -1, math.Inf(1)
	for _, c := range p.Cells() {
		h := s.holder[c]
		if h == avoid {
			continue
		}
		if d2 := layout.Pos(h).Dist2(sinkPos); d2 < bestD2 {
			best, bestD2 = h, d2
		}
	}
	return best
}

// queryCell scans all storage segments of one cell. Delegated segments
// cost an extra query/reply exchange between the index node and the
// delegate; a delegate that became unreachable is skipped, losing its
// slice of the answer (visible in recall, not in cell completeness).
func (s *System) queryCell(key storeKey, index int, rq event.Query, qBytes int) []event.Event {
	var matches []event.Event
	for _, seg := range s.store[key] {
		if seg.node != index {
			if _, err := s.unicast(index, seg.node, network.KindQuery, qBytes); err != nil {
				continue
			}
		}
		segMatches := rq.Filter(seg.events)
		if len(segMatches) == 0 {
			continue
		}
		if seg.node != index {
			if _, err := s.unicast(seg.node, index, network.KindReply,
				dcs.ReplyBytes(s.dims, len(segMatches))); err != nil {
				continue
			}
		}
		matches = append(matches, segMatches...)
	}
	return matches
}

// StorageLoad implements dcs.StorageReporter: events currently held by
// each node.
func (s *System) StorageLoad() []int {
	out := make([]int, len(s.stored))
	copy(out, s.stored)
	return out
}
