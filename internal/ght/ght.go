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
package ght

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/stats"
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

// WithStructuredReplication enables GHT's structured replication at the
// given hierarchy depth d: the field is divided into 4^d subsquares, each
// holding a mirror image of every root point. Events are stored at the
// mirror closest to the detecting sensor (cheap inserts); queries visit
// every mirror (d trades insert cost against query cost, exactly the
// knob the GHT paper describes).
func WithStructuredReplication(depth int) Option {
	return optionFunc(func(s *System) { s.replDepth = depth })
}

// WithMetrics registers GHT's live metrics on reg: insert/query
// counters, the per-query mirror fan-out histogram, and a
// function-backed per-node stored-events gauge. A nil registry attaches
// nothing.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(s *System) { s.reg = reg })
}

// System is a GHT instance over one network.
type System struct {
	net    *network.Network
	router *gpsr.Router

	// replDepth is the structured-replication hierarchy depth (0 = off).
	replDepth int

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
	// roots lists the distinct root points events have hashed to, in
	// first-insert order, and rootSet dedups them; anti-entropy
	// reconciliation (antientropy.go) enumerates replica pairs from it.
	roots   []geo.Point
	rootSet map[geo.Point]bool

	// Operation counts, which the metric families view: events
	// inserted, queries answered, and the retry unicasts and mirror
	// homes of those queries.
	inserts, queries, retries uint64
	fanout                    *stats.IntHistogram

	// reg is the registry WithMetrics attaches (nil: none).
	reg *metrics.Registry

	// arq carries the reusable route-path buffer for every unicast this
	// system issues; a System serves one goroutine at a time.
	arq     dcs.TxOptions
	pathBuf []int
	// replyBuf gathers the matches of the query in progress: each mirror's
	// scan appends into it, a mirror whose reply is lost truncates it back
	// to the mark taken before that scan, and the caller gets one
	// exact-size copy. The buffer itself never leaves the System.
	replyBuf []event.Event
	// mirrorBuf holds the mirror images of the operation in progress.
	mirrorBuf []geo.Point
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
		fanout:  stats.NewIntHistogram(),
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
	reg.HistogramOf("ght_query_fanout_mirrors", "mirror homes addressed per query", s.fanout)
	reg.NodeGaugeFunc("ght_stored_events", "events held per home node", n,
		func(i int) float64 { return float64(s.storage[i].Len()) })
}

// MirrorPoints returns the structured-replication images of a root point:
// the point's position replicated into each of the 4^depth subsquares
// (the root's own subsquare included).
func (s *System) MirrorPoints(root geo.Point) []geo.Point {
	return s.appendMirrors(nil, root)
}

// appendMirrors appends MirrorPoints(root) to dst.
func (s *System) appendMirrors(dst []geo.Point, root geo.Point) []geo.Point {
	if s.replDepth <= 0 {
		return append(dst, root)
	}
	side := s.net.Layout().Side
	grid := 1 << uint(s.replDepth) // subsquares per axis
	sub := side / float64(grid)
	// The root's offset within its own subsquare.
	offX := math.Mod(root.X, sub)
	offY := math.Mod(root.Y, sub)
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			dst = append(dst, geo.Pt(float64(gx)*sub+offX, float64(gy)*sub+offY))
		}
	}
	return dst
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
// its hashed key — with structured replication, to the home of the
// nearest mirror image.
func (s *System) Insert(origin int, e event.Event) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("ght: %w", err)
	}
	if s.dims == 0 {
		s.dims = e.Dims()
	} else if e.Dims() != s.dims {
		return fmt.Errorf("ght: event has %d dims, deployment holds %d", e.Dims(), s.dims)
	}
	pt := s.HashPoint(e.Values)
	root := pt
	if s.replDepth > 0 {
		pos := s.net.Layout().Pos(origin)
		best, bestD2 := pt, math.Inf(1)
		s.mirrorBuf = s.appendMirrors(s.mirrorBuf[:0], pt)
		for _, m := range s.mirrorBuf {
			if d2 := pos.Dist2(m); d2 < bestD2 {
				best, bestD2 = m, d2
			}
		}
		pt = best
	}
	home, _, err := s.home(origin, pt)
	if err != nil {
		return fmt.Errorf("ght: insert: %w", err)
	}
	if _, err := dcs.UnicastOpts(s.net, s.router, origin, home, network.KindInsert, dcs.EventBytes(e.Dims()), s.arq); err != nil {
		return fmt.Errorf("ght: insert: %w", err)
	}
	s.storage[home].Append(e)
	if s.replDepth > 0 {
		s.recordRoot(root)
	}
	s.inserts++
	return nil
}

// Query implements dcs.System for exact-match point queries only. Under
// node failures the query degrades gracefully — mirrors whose home stays
// unreachable through one retry are skipped and the matches that could
// be gathered are returned; use QueryWithReport to learn how complete
// the answer is.
func (s *System) Query(sink int, q event.Query) ([]event.Event, error) {
	results, _, err := s.QueryWithReport(sink, q)
	return results, err
}

// QueryWithReport is Query plus a Completeness report with pool/dim
// semantics: the fan-out size is the number of mirror homes the query
// must visit (1 without structured replication), a mirror counts as
// reached when its query leg was delivered AND — if it held matches —
// its reply made it back to the sink, and its point lost no event to a
// crash; Retries counts the extra unicasts the failure policy spent. An
// incomplete answer is not an error — the error return covers only
// malformed or unsupported queries and programming faults.
//
// The failure policy is dcs.Exchange's: a mirror whose home stays
// unreachable, or whose reply is lost, through the one retry is recorded
// in comp and skipped, and the chain continues from the last node
// actually reached.
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
	root := s.HashPoint(key)
	qBytes := dcs.QueryBytes(q.Dims())
	// With structured replication, matching events may sit at any mirror;
	// the query walks all of them in a chain and each mirror with matches
	// replies.
	s.mirrorBuf = s.appendMirrors(s.mirrorBuf[:0], root)
	mirrors := s.mirrorBuf
	comp.CellsTotal += len(mirrors)
	s.replyBuf = s.replyBuf[:0]
	// After anti-entropy reconciliation sibling mirrors hold overlapping
	// copies, so the mirror walk dedups matches by digest; pre-repair the
	// shares are disjoint and this is a no-op.
	var seen map[uint64]bool
	if s.replDepth > 0 {
		seen = make(map[uint64]bool)
	}
	cur := sink
	for mi, pt := range mirrors {
		home, lost, err := s.home(cur, pt)
		if err != nil {
			if !dcs.IsDegradable(err) {
				return nil, comp, fmt.Errorf("ght: query: %w", err)
			}
			comp.Unreached = append(comp.Unreached, mirrorLabel(mi, pt))
			continue
		}
		// GHT has no alternate holder for a hashed point — the hash names
		// exactly one home — so the retry re-attempts the same node.
		landed, err := dcs.Exchange(s.net, s.router, cur, home, network.KindQuery, qBytes, s.arq, &comp, nil)
		if err != nil {
			return nil, comp, fmt.Errorf("ght: query: %w", err)
		}
		if landed < 0 {
			comp.Unreached = append(comp.Unreached, mirrorLabel(mi, pt))
			continue
		}
		cur = home
		mark := len(s.replyBuf)
		s.replyBuf = s.storage[home].AppendMatches(s.replyBuf, q)
		found := len(s.replyBuf) - mark
		if found > 0 || s.replDepth == 0 {
			landed, err := dcs.Exchange(s.net, s.router, home, sink, network.KindReply,
				dcs.ReplyBytes(q.Dims(), found), s.arq, &comp, nil)
			if err != nil {
				return nil, comp, fmt.Errorf("ght: reply: %w", err)
			}
			if landed < 0 {
				// The reply never made it back: the mirror's matches are
				// lost to the sink, so it goes unserved.
				s.replyBuf = s.replyBuf[:mark]
				comp.Unreached = append(comp.Unreached, mirrorLabel(mi, pt))
				continue
			}
			if seen != nil {
				// Compact this mirror's matches in place, keeping first
				// sightings only.
				kept := s.replyBuf[:mark]
				for _, e := range s.replyBuf[mark:] {
					if d := antientropy.Digest(e); !seen[d] {
						seen[d] = true
						kept = append(kept, e)
					}
				}
				s.replyBuf = kept
			}
		}
		if lost { // it answers what survived, unreached
			comp.Unreached = append(comp.Unreached, mirrorLabel(mi, pt))
			continue
		}
		comp.CellsReached++
	}
	s.queries++
	s.retries += uint64(comp.Retries)
	s.fanout.Add(int64(comp.CellsTotal))
	return event.CloneEvents(s.replyBuf), comp, nil
}

// mirrorLabel formats the completeness-report id of the mi-th mirror
// image; built only when a mirror goes unreached.
func mirrorLabel(mi int, pt geo.Point) string { return fmt.Sprintf("M%d %v", mi, pt) }

// StorageLoad implements dcs.StorageReporter.
func (s *System) StorageLoad() []int {
	out := make([]int, len(s.storage))
	for i := range s.storage {
		out[i] = s.storage[i].Len()
	}
	return out
}
