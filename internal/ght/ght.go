// Package ght implements a Geographic Hash Table (Ratnasamy et al.,
// MONET 2003), the earliest data-centric storage scheme and the paper's
// point of contrast for exact-match workloads (§1).
//
// GHT hashes an event's key to a geographic location and stores the event
// at that location's home node — the node GPSR delivers to when no node
// sits exactly at the hashed point. Because the hash destroys value
// locality, GHT answers only exact-match point queries; range queries are
// outside its contract, which is precisely the limitation Pool and DIM
// address.
//
// Each hashed key has exactly one home and no copy: a query is one
// exchange to that home and one reply back. The GHT paper's structured
// replication is not modelled; Pool's mirror copies (internal/holding)
// are the repository's only replication.
package ght

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
)

// ErrUnsupported is returned for queries GHT cannot evaluate (anything but
// an exact-match point query).
var ErrUnsupported = errors.New("ght: only exact-match point queries are supported")

// Option configures New.
type Option interface {
	apply(*System)
}

type optionFunc func(*System)

func (f optionFunc) apply(s *System) { f(s) }

// WithMetrics registers GHT's live metrics on reg: insert/query
// counters, the per-query home fan-out histogram, and a
// function-backed per-node stored-events gauge. A nil registry attaches
// nothing.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(s *System) { s.reg = reg })
}

// System is a GHT instance over one network.
type System struct {
	net    *network.Network
	router *gpsr.Router

	// storage holds the events owned by each node, as rows for the home
	// scan; dims is the k they all share, fixed by the first insert (0
	// before it).
	storage []event.Rows
	dims    int
	// homes maps each hashed point used so far to its home node, mirroring
	// GHT's perimeter-refresh caching, and to how whole the point's events
	// are; FailNode rewrites the entries of a dead home (see home).
	homes map[geo.Point]homing
	// dead marks failed nodes (faults.go).
	dead []bool

	// Operation counts, which the metric families view: events
	// inserted, queries answered, and the retry unicasts of those
	// queries.
	inserts, queries, retries uint64

	// reg is the registry WithMetrics attaches (nil: none).
	reg *metrics.Registry

	// arq carries the reusable route-path buffer for every unicast this
	// system issues; a System serves one goroutine at a time.
	arq     dcs.TxOptions
	pathBuf []int
	// replyBuf gathers the home's matches for the query in progress, and
	// the caller gets one exact-size copy. The buffer itself never leaves
	// the System.
	replyBuf []event.Event
}

var _ dcs.System = (*System)(nil)
var _ dcs.StorageReporter = (*System)(nil)

// New builds a GHT over the given network and router.
func New(net *network.Network, router *gpsr.Router, opts ...Option) *System {
	s := &System{
		net:     net,
		router:  router,
		storage: make([]event.Rows, net.Layout().N()),
		homes:   make(map[geo.Point]homing),
		dead:    make([]bool, net.Layout().N()),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.arq.PathBuf = &s.pathBuf
	if s.reg != nil {
		s.enableMetrics(s.reg)
	}
	return s
}

// enableMetrics registers the system's metric families (WithMetrics).
func (s *System) enableMetrics(reg *metrics.Registry) {
	n := s.net.Layout().N()
	reg.CounterFunc("ght_inserts_total", "events stored through GHT", func() float64 { return float64(s.inserts) })
	reg.CounterFunc("ght_queries_total", "exact-match queries resolved by GHT", func() float64 { return float64(s.queries) })
	reg.CounterFunc("ght_query_retries_total", "extra unicasts spent by the query failure policy",
		func() float64 { return float64(s.retries) })
	reg.NodeGaugeFunc("ght_stored_events", "events held per home node", n,
		func(i int) float64 { return float64(s.storage[i].Len()) })
}

// Name implements dcs.System.
func (s *System) Name() string { return "GHT" }

// HashPoint maps an event key (its full value vector) to a location in the
// deployment field. The mapping is deterministic and spreads keys
// uniformly.
func (s *System) HashPoint(values []float64) geo.Point {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range values {
		// Quantize so that the 1e-12 noise of different computation paths
		// cannot hash the same logical key to different points.
		q := math.Round(v * 1e9)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(q))
		_, _ = h.Write(buf[:])
	}
	sum := h.Sum64()
	side := s.net.Layout().Side
	x := float64(sum&0xFFFFFFFF) / float64(1<<32) * side
	y := float64(sum>>32) / float64(1<<32) * side
	return geo.Pt(x, y)
}

// homing is a hashed point's home node, and whether a crash took events
// of the point no copy restores: that never ends.
type homing struct {
	node int32
	lost bool
}

// home returns the home node for a hashed point as seen from the given
// node, and whether the point is lost. The first operation on a
// point resolves it through the router — an index lookup that charges
// nothing, as GPSR discovers the home as a side effect of the first routed
// packet — and every later one reads the homes map. The map is state, not
// only a cache: FailNode re-homes and marks in it what outlives
// RecoverNode.
func (s *System) home(from int, pt geo.Point) (int, bool, error) {
	if h, ok := s.homes[pt]; ok {
		return int(h.node), h.lost, nil
	}
	h, err := s.router.HomeNode(from, pt)
	if err != nil {
		return -1, false, err
	}
	s.homes[pt] = homing{node: int32(h)}
	return h, false, nil
}

// Insert implements dcs.System: the event is routed to the home node of
// its hashed key.
func (s *System) Insert(origin int, e event.Event) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("ght: %w", err)
	}
	if s.dims == 0 {
		s.dims = e.Dims()
	} else if e.Dims() != s.dims {
		return fmt.Errorf("ght: event has %d dims, deployment holds %d", e.Dims(), s.dims)
	}
	home, _, err := s.home(origin, s.HashPoint(e.Values))
	if err != nil {
		return fmt.Errorf("ght: insert: %w", err)
	}
	if _, err := dcs.UnicastOpts(s.net, s.router, origin, home, network.KindInsert, dcs.EventBytes(e.Dims()), s.arq); err != nil {
		return fmt.Errorf("ght: insert: %w", err)
	}
	s.storage[home].Append(e)
	s.inserts++
	return nil
}

// Query implements dcs.System for exact-match point queries only. Under
// node failures the query degrades gracefully — a home that stays
// unreachable through one retry is skipped and no matches are returned;
// use QueryWithReport to learn how complete the answer is.
func (s *System) Query(sink int, q event.Query) ([]event.Event, error) {
	results, _, err := s.QueryWithReport(sink, q)
	return results, err
}

// QueryWithReport is Query plus a Completeness report with pool/dim
// semantics: the fan-out is the key's one home, which counts as reached
// when the query leg was delivered, the reply made it back to the sink,
// and its point lost no event to a crash; Retries counts the extra
// unicasts the failure policy spent. An incomplete answer is not an
// error — the error return covers only malformed or unsupported queries
// and programming faults.
//
// The failure policy is dcs.Exchange's: a home that stays unreachable,
// or whose reply is lost, through the one retry is recorded in comp and
// answers nothing.
func (s *System) QueryWithReport(sink int, q event.Query) ([]event.Event, dcs.Completeness, error) {
	var comp dcs.Completeness
	if err := q.Validate(); err != nil {
		return nil, comp, fmt.Errorf("ght: %w", err)
	}
	if q.Classify() != event.ExactPoint {
		return nil, comp, fmt.Errorf("%w: got %v", ErrUnsupported, q.Classify())
	}
	var keyArr [8]float64
	var key []float64
	if q.Dims() <= len(keyArr) {
		key = keyArr[:q.Dims()]
	} else {
		key = make([]float64, q.Dims())
	}
	for i, r := range q.Ranges {
		key[i] = r.L
	}
	pt := s.HashPoint(key)
	comp.CellsTotal = 1
	s.replyBuf = s.replyBuf[:0]
	reached, err := s.serve(sink, pt, q, &comp)
	if err != nil {
		return nil, comp, err
	}
	if reached {
		comp.CellsReached++
	} else {
		comp.Unreached = append(comp.Unreached, fmt.Sprintf("M0 %v", pt))
	}
	s.queries++
	s.retries += uint64(comp.Retries)
	return event.CloneEvents(s.replyBuf), comp, nil
}

// serve runs one query's exchange with the home of pt and its reply back
// to the sink, gathering the home's matches into replyBuf, and reports
// whether the home is reached: a home left unserved contributes nothing,
// and a lost point answers what survived, unreached.
func (s *System) serve(sink int, pt geo.Point, q event.Query, comp *dcs.Completeness) (bool, error) {
	home, lost, err := s.home(sink, pt)
	if err != nil {
		if !dcs.IsDegradable(err) {
			return false, fmt.Errorf("ght: query: %w", err)
		}
		return false, nil
	}
	// GHT has no alternate holder for a hashed point — the hash names
	// exactly one home — so the retry re-attempts the same node.
	landed, err := dcs.Exchange(s.net, s.router, sink, home, network.KindQuery, dcs.QueryBytes(q.Dims()), s.arq, comp, nil)
	if err != nil {
		return false, fmt.Errorf("ght: query: %w", err)
	}
	if landed < 0 {
		return false, nil
	}
	s.replyBuf = s.storage[home].AppendMatches(s.replyBuf, q)
	landed, err = dcs.Exchange(s.net, s.router, home, sink, network.KindReply,
		dcs.ReplyBytes(q.Dims(), len(s.replyBuf)), s.arq, comp, nil)
	if err != nil {
		return false, fmt.Errorf("ght: reply: %w", err)
	}
	if landed < 0 {
		// The reply never made it back: the home's matches are lost to
		// the sink.
		s.replyBuf = s.replyBuf[:0]
		return false, nil
	}
	return !lost, nil
}

// StorageLoad implements dcs.StorageReporter.
func (s *System) StorageLoad() []int {
	out := make([]int, len(s.storage))
	for i := range s.storage {
		out[i] = s.storage[i].Len()
	}
	return out
}
