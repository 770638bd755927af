package dim

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/holding"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
)

// Zone is one leaf of DIM's spatial subdivision.
type Zone struct {
	// Code is the zone's binary code.
	Code Code
	// Rect is the geographic region the zone covers.
	Rect geo.Rect
	// Owner is the node responsible for the zone: the node inside it, or —
	// for node-free zones — the node nearest the zone centre (DIM's backup
	// ownership of empty zones).
	Owner int
}

// treeNode is a node of the zone code tree. Leaves reference a zone.
type treeNode struct {
	zone     int // index into System.zones, -1 for internal nodes
	children [2]*treeNode
}

// Dissemination selects how a query reaches its relevant zones.
type Dissemination int

// Dissemination strategies.
const (
	// ChainDissemination forwards the query through the relevant zones in
	// code order; consecutive zones are spatially adjacent under the k-d
	// subdivision, so the chain's links are short. This is the default
	// and the cheaper model for DIM.
	ChainDissemination Dissemination = iota + 1
	// SplitDissemination models the DIM paper's recursive query
	// splitting: the query packet routes toward the nearest relevant
	// subregion and forks a subquery for the sibling region at each
	// subtree boundary it enters.
	SplitDissemination
)

// String implements fmt.Stringer.
func (d Dissemination) String() string {
	switch d {
	case ChainDissemination:
		return "chain"
	case SplitDissemination:
		return "split"
	default:
		return fmt.Sprintf("Dissemination(%d)", int(d))
	}
}

// Option configures New.
type Option interface {
	apply(*System)
}

type optionFunc func(*System)

func (f optionFunc) apply(s *System) { f(s) }

// WithDissemination selects the query dissemination strategy.
func WithDissemination(d Dissemination) Option {
	return optionFunc(func(s *System) { s.dissemination = d })
}

// WithTracer attaches a structured-event tracer so DIM runs produce
// traces comparable to Pool's: inserts and queries become spans with
// placement, fan-out, and zone-resolve events. Pair with
// network.WithTracer on the same tracer for per-hop records.
func WithTracer(t *trace.Tracer) Option {
	return optionFunc(func(s *System) { s.tracer = t })
}

// WithMetrics registers DIM's live metrics on reg: insert/query
// counters, the per-query zone fan-out histogram, and a function-backed
// per-node stored-events gauge. A nil registry attaches nothing.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(s *System) { s.reg = reg })
}

// System is a DIM instance over one network.
type System struct {
	// Store holds the zones' events: each zone, named by its index into
	// zones, a unit with one segment, at its owner, and no mirror.
	*holding.Store[int]

	net    *network.Network
	router *gpsr.Router
	dims   int

	zones    []Zone
	root     *treeNode
	maxDepth int

	dissemination Dissemination

	// tracer records structured events; nil disables tracing.
	tracer *trace.Tracer

	// arq is the options of every routed (ARQ) unicast: its PathBuf
	// points at pathBuf so route paths reuse one backing array.
	// legs is arq with the System's leg table, for the query's legs from
	// one zone owner to the next (dcs.Legs).
	arq, legs dcs.TxOptions
	// pathBuf, zoneBuf, visitBuf, answered, and replyBuf are query/insert
	// hot-path scratch, reused across operations. A System is
	// single-goroutine. zoneBuf and visitBuf carry indices into zones.
	pathBuf  []int
	zoneBuf  []int
	visitBuf []zoneVisit
	// answered[n] == epoch marks node n as already scanned by the query in
	// progress, and relevant[z] == epoch zone z as one of its relevant
	// zones; bumping epoch forgets every mark at once.
	answered, relevant []uint32
	epoch              uint32
	// replyBuf gathers the matches of the query in progress: each owner's
	// scan appends into it, an owner whose reply is lost truncates it back
	// to the mark taken before that scan, and the caller gets one
	// exact-size copy. The buffer itself never leaves the System.
	replyBuf []event.Event

	// owned[n] lists the zones node n owns; FailNode hands a dead owner's
	// to their new owners.
	owned [][]int32
	// dead marks failed nodes (faults.go).
	dead []bool

	// Operation counts, which the metric families view: events
	// inserted, queries answered, and the retry unicasts and relevant
	// zones of those queries.
	inserts, queries, retries uint64
	fanout                    *stats.IntHistogram

	// reg is the registry WithMetrics attaches (nil: none).
	reg *metrics.Registry
}

var _ dcs.System = (*System)(nil)

// New builds the DIM zone structure over the network's deployment for
// events of the given dimensionality.
func New(net *network.Network, router *gpsr.Router, dims int, opts ...Option) (*System, error) {
	if dims < 1 {
		return nil, fmt.Errorf("dim: dimensionality must be ≥ 1, got %d", dims)
	}
	s := &System{
		net:           net,
		router:        router,
		dims:          dims,
		dissemination: ChainDissemination,
		dead:          make([]bool, net.Layout().N()),
		answered:      make([]uint32, net.Layout().N()),
		fanout:        stats.NewIntHistogram(),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.arq.PathBuf = &s.pathBuf
	s.legs = s.arq
	s.legs.Legs = dcs.NewLegs(router)
	s.buildZones()
	zone := func(i int) int { return i }
	s.Store = holding.New(len(s.zones), net.Layout().N(), holding.Scheme[int]{
		Slot: zone, Unit: zone, Failed: s.Failed, MirrorAt: func(int) int { return -1 }})
	if s.reg != nil {
		s.enableMetrics(s.reg)
	}
	return s, nil
}

// enableMetrics registers the system's metric families (WithMetrics).
func (s *System) enableMetrics(reg *metrics.Registry) {
	n := s.net.Layout().N()
	reg.CounterFunc("dim_inserts_total", "events stored through DIM", func() float64 { return float64(s.inserts) })
	reg.CounterFunc("dim_queries_total", "range queries resolved by DIM", func() float64 { return float64(s.queries) })
	reg.CounterFunc("dim_query_retries_total", "extra unicasts spent by the query failure policy",
		func() float64 { return float64(s.retries) })
	reg.HistogramOf("dim_query_fanout_zones", "relevant zones addressed per query", s.fanout)
	reg.NodeGaugeFunc("dim_stored_events", "events held per node", n,
		func(i int) float64 { return float64(s.Stored(i)) })
	reg.GaugeFunc("dim_zones", "leaves of the zone subdivision",
		func() float64 { return float64(len(s.zones)) })
}

// unicast routes a payload between two nodes, applying the system's ARQ
// retransmission budget. Every routed exchange in the package goes
// through here or through exchange.
func (s *System) unicast(from, to int, kind network.Kind, payloadBytes int) (int, error) {
	return dcs.UnicastOpts(s.net, s.router, from, to, kind, payloadBytes, s.arq)
}

// exchange is a unicast with opts (s.arq, or s.legs between owners)
// under the failure policy of dcs.Exchange — a zone has one owner, so the
// retry goes to the same node — and reports whether the payload landed.
func (s *System) exchange(from, to int, kind network.Kind, payloadBytes int, opts dcs.TxOptions, comp *dcs.Completeness) (bool, error) {
	landed, err := dcs.Exchange(s.net, s.router, from, to, kind, payloadBytes, opts, comp, nil)
	return landed >= 0, err
}

// Name implements dcs.System.
func (s *System) Name() string { return "DIM" }

// Dims returns the event dimensionality the index was built for.
func (s *System) Dims() int { return s.dims }

// buildZones recursively bisects the field until every zone holds at most
// one node, then assigns node-free zones to the node nearest their centre.
func (s *System) buildZones() {
	l := s.net.Layout()
	all := make([]int, l.N())
	for i := range all {
		all[i] = i
	}
	// A uniform deployment cuts about 1.45 zones per node.
	s.zones = make([]Zone, 0, l.N()+l.N()/2+1)
	b := zoneBuilder{s: s, l: l, hi: make([]int, 0, l.N())}
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(l.Side, l.Side)}
	s.root = b.split(Code{}, bounds, all)
	// The DFS in split appends leaves child-0-first, so zones are already
	// in code order — the spatially coherent traversal order Query uses.
	// The owned lists are carved from one backing array.
	s.relevant = make([]uint32, len(s.zones))
	count := make([]int, l.N()+1)
	for _, z := range s.zones {
		s.maxDepth = max(s.maxDepth, z.Code.Len())
		count[z.Owner+1]++
	}
	for i := range l.N() {
		count[i+1] += count[i]
	}
	backing := make([]int32, len(s.zones))
	s.owned = make([][]int32, l.N())
	for i := range s.owned {
		s.owned[i] = backing[count[i]:count[i]:count[i+1]]
	}
	for i, z := range s.zones {
		s.owned[z.Owner] = append(s.owned[z.Owner], int32(i))
	}
}

// zoneBuilder carries the scratch of one zone subdivision: hi holds the
// upper half of the node list being partitioned, and tree nodes are taken
// from slab chunks instead of one heap object each.
type zoneBuilder struct {
	s    *System
	l    *field.Layout
	hi   []int
	slab []treeNode
}

// node takes a tree node from the slab. A tree has one internal node
// fewer than it has leaves, about 2.9 nodes per sensor when uniform, so
// one chunk usually holds the whole tree.
func (b *zoneBuilder) node(zone int) *treeNode {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]treeNode, 0, max(64, 3*b.l.N()))
	}
	b.slab = append(b.slab, treeNode{zone: zone})
	return &b.slab[len(b.slab)-1]
}

// split subdivides rect, whose nodes are listed in ascending id order, and
// returns its subtree. The list is partitioned in place and stably, so
// each child's list stays in ascending order.
func (b *zoneBuilder) split(code Code, rect geo.Rect, nodes []int) *treeNode {
	s, l := b.s, b.l
	if len(nodes) <= 1 || code.Len() >= maxCodeBits {
		owner := -1
		if len(nodes) >= 1 {
			owner = nodes[0]
		} else {
			owner = l.Nearest(rect.Center())
		}
		s.zones = append(s.zones, Zone{Code: code, Rect: rect, Owner: owner})
		return b.node(len(s.zones) - 1)
	}
	var lo, hi geo.Rect
	if code.Len()%2 == 0 {
		lo, hi = rect.SplitVertical()
	} else {
		lo, hi = rect.SplitHorizontal()
	}
	// Half-open rectangles tile the plane, so each node lands in exactly
	// one child: the lower child's nodes move to the front of the list,
	// the upper child's go through the scratch to the back.
	k, up := 0, b.hi[:0]
	for _, n := range nodes {
		if lo.Contains(l.Pos(n)) {
			nodes[k] = n
			k++
		} else {
			up = append(up, n)
		}
	}
	copy(nodes[k:], up)
	t := b.node(-1)
	t.children[0] = b.split(code.Append(0), lo, nodes[:k])
	t.children[1] = b.split(code.Append(1), hi, nodes[k:])
	return t
}

// ZoneOf returns the zone an event's values map to under the
// locality-preserving hash.
func (s *System) ZoneOf(values []float64) Zone { return s.zones[s.zoneOf(values)] }

// zoneOf returns the index into zones of ZoneOf(values).
func (s *System) zoneOf(values []float64) int {
	code := EventCode(values, s.maxDepth)
	t := s.root
	depth := 0
	for t.zone < 0 {
		t = t.children[code.Bit(depth)]
		depth++
	}
	return t.zone
}

// Insert implements dcs.System: the event is routed toward its zone and
// stored at the zone's owner.
func (s *System) Insert(origin int, e event.Event) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("dim: %w", err)
	}
	if e.Dims() != s.dims {
		return fmt.Errorf("dim: event has %d dims, index built for %d", e.Dims(), s.dims)
	}
	zi := s.zoneOf(e.Values)
	z := &s.zones[zi]
	payload := dcs.EventBytes(s.dims)
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpInsert, origin, "")
		defer s.tracer.End()
		s.tracer.Record(trace.TypePlace, z.Owner, 0, fmt.Sprintf("zone %v", z.Code))
	}
	// The event is routed geographically toward the zone and consumed by
	// the zone's owner on arrival (a node inside its zone recognizes the
	// code and keeps the event; no home-node probe is needed).
	if _, err := s.unicast(origin, z.Owner, network.KindInsert, payload); err != nil {
		return fmt.Errorf("dim: insert: %w", err)
	}
	s.Append(zi, z.Owner, e)
	s.inserts++
	return nil
}

// RelevantZones returns the zones whose value regions overlap the
// (rewritten) query — the zones DIM must visit.
func (s *System) RelevantZones(q event.Query) []Zone {
	idx := s.appendRelevantZones(nil, q.Rewrite())
	if len(idx) == 0 {
		return nil
	}
	out := make([]Zone, len(idx))
	for i, zi := range idx {
		out[i] = s.zones[zi]
	}
	return out
}

// unitRegion fills the descent's region scratch with [0, 1] per
// dimension; arr keeps it on the caller's stack for realistic k.
func (s *System) unitRegion(arr *[8]geo.Interval) []geo.Interval {
	var region []geo.Interval
	if s.dims <= len(arr) {
		region = arr[:s.dims]
	} else {
		region = make([]geo.Interval, s.dims)
	}
	for j := range region {
		region[j] = geo.Iv(0, 1)
	}
	return region
}

// appendRelevantZones appends the indices (into zones) of the zones
// overlapping the already-rewritten query to dst and returns the extended
// slice — the allocation-free form of RelevantZones for per-query hot
// paths.
func (s *System) appendRelevantZones(dst []int, rq event.Query) []int {
	var regionArr [8]geo.Interval
	s.collect(s.root, 0, s.unitRegion(&regionArr), rq, &dst)
	return dst
}

func (s *System) collect(t *treeNode, depth int, region []geo.Interval, q event.Query, out *[]int) {
	if t.zone >= 0 {
		*out = append(*out, t.zone)
		return
	}
	j := depth % s.dims
	mid := (region[j].Lo + region[j].Hi) / 2
	r := q.Ranges[j]
	// Child 0 covers values in [lo, mid); child 1 covers [mid, hi).
	if r.L < mid {
		saved := region[j]
		region[j] = geo.Iv(saved.Lo, mid)
		s.collect(t.children[0], depth+1, region, q, out)
		region[j] = saved
	}
	if r.U >= mid {
		saved := region[j]
		region[j] = geo.Iv(mid, saved.Hi)
		s.collect(t.children[1], depth+1, region, q, out)
		region[j] = saved
	}
}

// Query implements dcs.System: the query is disseminated to every
// relevant zone (strategy per WithDissemination) and every owner holding
// qualifying events replies to the sink. Under node failures the query
// degrades gracefully — zones that stay unreachable after one retry are
// skipped; use QueryWithReport to learn how complete the answer is.
func (s *System) Query(sink int, q event.Query) ([]event.Event, error) {
	results, _, err := s.QueryWithReport(sink, q)
	return results, err
}

// zoneVisit is one relevant zone (an index into zones) the dissemination
// reached, in visit order; ok is cleared when the owner's reply is later
// lost.
type zoneVisit struct {
	zone int
	ok   bool
}

// QueryWithReport is Query plus a Completeness report over the relevant
// zones: how many the dissemination addressed, how many were served
// (visited, replied when they held matches, and holding every event stored
// in them), and which were left unreached. An incomplete answer is not an
// error.
func (s *System) QueryWithReport(sink int, q event.Query) ([]event.Event, dcs.Completeness, error) {
	var comp dcs.Completeness
	if err := q.Validate(); err != nil {
		return nil, comp, fmt.Errorf("dim: %w", err)
	}
	if q.Dims() != s.dims {
		return nil, comp, fmt.Errorf("dim: query has %d dims, index built for %d", q.Dims(), s.dims)
	}
	rq := q.Rewrite()
	qBytes := dcs.QueryBytes(s.dims)

	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpQuery, sink, "")
		defer s.tracer.End()
	}
	var visits []zoneVisit
	var err error
	switch s.dissemination {
	case SplitDissemination:
		visits, err = s.disseminateSplit(sink, rq, qBytes, &comp)
	default:
		visits, err = s.disseminateChain(sink, rq, qBytes, &comp)
	}
	if err != nil {
		return nil, comp, err
	}
	if s.tracer.Enabled() {
		s.tracer.Record(trace.TypeFanout, sink, len(visits), s.dissemination.String())
	}

	// A node may own several relevant zones (backup ownership of empty
	// zones): at its first visit it scans the relevant ones it owns and
	// answers once.
	s.epoch++
	if s.epoch == 0 {
		// The stamp wrapped: marks of 2³² queries ago would read as fresh.
		clear(s.answered)
		clear(s.relevant)
		s.epoch = 1
	}
	for _, z := range s.zoneBuf {
		s.relevant[z] = s.epoch
	}
	s.replyBuf = s.replyBuf[:0]
	for _, v := range visits {
		owner := s.zones[v.zone].Owner
		if s.answered[owner] == s.epoch {
			continue
		}
		s.answered[owner] = s.epoch
		mark := len(s.replyBuf)
		for _, z := range s.owned[owner] {
			if segs := s.Segments(int(z)); len(segs) > 0 && s.relevant[z] == s.epoch {
				s.replyBuf = segs[0].Rows.AppendMatches(s.replyBuf, rq)
			}
		}
		matches := len(s.replyBuf) - mark
		if s.tracer.Enabled() {
			s.tracer.Record(trace.TypeResolve, owner, matches, "")
		}
		if matches == 0 {
			continue
		}
		landed, err := s.exchange(owner, sink, network.KindReply, dcs.ReplyBytes(s.dims, matches), s.arq, &comp)
		if err != nil {
			return nil, comp, fmt.Errorf("dim: reply: %w", err)
		}
		if !landed {
			// The reply never made it: its matches are dropped and every
			// zone this owner serves goes unserved.
			s.replyBuf = s.replyBuf[:mark]
			for i := range visits {
				if s.zones[visits[i].zone].Owner == owner {
					visits[i].ok = false
				}
			}
		}
	}
	// A zone a crash emptied of events is never whole again: its owner's
	// matches count, the zone does not.
	for _, v := range visits {
		if v.ok && s.Vouches(v.zone, false) {
			comp.CellsReached++
		} else {
			comp.Unreached = append(comp.Unreached, fmt.Sprintf("zone %v", s.zones[v.zone].Code))
		}
	}
	s.queries++
	s.retries += uint64(comp.Retries)
	s.fanout.Add(int64(comp.CellsTotal))
	return event.CloneEvents(s.replyBuf), comp, nil
}

// disseminateChain forwards the query through the relevant zones in code
// order, returning the visited zones. A zone whose owner stays
// unreachable after one retry is recorded in comp and skipped; the chain
// continues from the previous carrier. Once the query sits at an owner,
// its legs replay from the leg table.
func (s *System) disseminateChain(sink int, rq event.Query, qBytes int, comp *dcs.Completeness) ([]zoneVisit, error) {
	zones := s.appendRelevantZones(s.zoneBuf[:0], rq)
	s.zoneBuf = zones
	comp.CellsTotal += len(zones)
	visits := s.visitBuf[:0]
	cur, opts := sink, s.arq
	for _, zi := range zones {
		z := &s.zones[zi]
		landed, err := s.exchange(cur, z.Owner, network.KindQuery, qBytes, opts, comp)
		if err != nil {
			return nil, fmt.Errorf("dim: query forward: %w", err)
		}
		if !landed {
			comp.Unreached = append(comp.Unreached, fmt.Sprintf("zone %v", z.Code))
			continue
		}
		cur, opts = z.Owner, s.legs
		visits = append(visits, zoneVisit{zone: zi, ok: true})
	}
	s.visitBuf = visits
	return visits, nil
}

// disseminateSplit walks the zone tree: the packet routes from its
// carrier toward the nearest relevant child region; on entering a region
// whose sibling is also relevant, the entry node forks a subquery for the
// sibling. Returns the visited zones, the relevant ones left in zoneBuf as
// disseminateChain leaves them; unreachable leaves are recorded in
// comp and skipped (their sibling subqueries depart from the carrier).
func (s *System) disseminateSplit(sink int, rq event.Query, qBytes int, comp *dcs.Completeness) ([]zoneVisit, error) {
	var regionArr [8]geo.Interval
	s.zoneBuf, s.visitBuf = s.zoneBuf[:0], s.visitBuf[:0]
	if _, err := s.splitWalk(sink, s.arq, s.root, 0, s.unitRegion(&regionArr), rq, qBytes, &s.visitBuf, comp); err != nil {
		return nil, err
	}
	return s.visitBuf, nil
}

// splitWalk recursively disseminates the query under t, returning the
// entry node (the first owner reached in this subtree), or -1 when no
// zone under t is relevant or its owner stayed unreachable. opts is the
// carrier's: s.arq at the sink, s.legs at an owner.
func (s *System) splitWalk(carrier int, opts dcs.TxOptions, t *treeNode, depth int, region []geo.Interval, rq event.Query, qBytes int, visits *[]zoneVisit, comp *dcs.Completeness) (int, error) {
	if t.zone >= 0 {
		z := &s.zones[t.zone]
		s.zoneBuf = append(s.zoneBuf, t.zone)
		comp.CellsTotal++
		// A zone given up leaves its sibling's subquery to depart from the
		// carrier instead.
		landed, err := s.exchange(carrier, z.Owner, network.KindQuery, qBytes, opts, comp)
		if err != nil {
			return -1, fmt.Errorf("dim: split forward: %w", err)
		}
		if !landed {
			comp.Unreached = append(comp.Unreached, fmt.Sprintf("zone %v", z.Code))
			return -1, nil
		}
		*visits = append(*visits, zoneVisit{zone: t.zone, ok: true})
		return z.Owner, nil
	}

	j := depth % s.dims
	mid := (region[j].Lo + region[j].Hi) / 2
	r := rq.Ranges[j]
	type child struct {
		node   *treeNode
		iv     geo.Interval
		center geo.Point
	}
	var childArr [2]child
	children := childArr[:0]
	if r.L < mid {
		children = append(children, child{node: t.children[0], iv: geo.Iv(region[j].Lo, mid)})
	}
	if r.U >= mid {
		children = append(children, child{node: t.children[1], iv: geo.Iv(mid, region[j].Hi)})
	}
	if len(children) == 0 {
		return -1, nil
	}
	for i := range children {
		children[i].center = s.subtreeCenter(children[i].node)
	}
	// Enter the nearer region first; the sibling's subquery departs from
	// that region's entry node.
	if len(children) == 2 {
		here := s.net.Layout().Pos(carrier)
		if here.Dist2(children[1].center) < here.Dist2(children[0].center) {
			children[0], children[1] = children[1], children[0]
		}
	}
	entry := -1
	cur := carrier
	for _, c := range children {
		saved := region[j]
		region[j] = c.iv
		e, err := s.splitWalk(cur, opts, c.node, depth+1, region, rq, qBytes, visits, comp)
		region[j] = saved
		if err != nil {
			return -1, err
		}
		if e >= 0 && entry < 0 {
			entry = e
			cur, opts = e, s.legs
		}
	}
	return entry, nil
}

// subtreeCenter returns the centre of the subtree's first leaf zone (its
// child-0-most leaf), not of the region the whole subtree covers: split
// dissemination orders the two children of a node by this anchor.
func (s *System) subtreeCenter(t *treeNode) geo.Point {
	for t.zone < 0 {
		t = t.children[0]
	}
	return s.zones[t.zone].Rect.Center()
}
