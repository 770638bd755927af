package dcs

import (
	"math/bits"

	"pooldcs/internal/gpsr"
)

// Legs caches the routed paths of one System's storage-to-storage legs:
// DIM's owner-to-owner forwarding and Pool's splitter↔cell exchanges run
// between nodes fixed by the deployment, so the same (from, to) pairs
// recur query after query, while legs to and from random sinks and
// origins do not and stay out of the table.
//
// A node-addressed route is a pure function of (from, to) and the
// router's exclusion set, which only Exclude and Restore change, and each
// flip bumps gpsr.Router.Generation. A slot holds the path of one
// successful route together with the generation it was routed under, and
// answers only under that generation: a replayed path is the one
// RouteToNode would return, and it is charged through the same
// TransmitPath and ARQ loop, so counters, losses and errors cannot
// differ from routing the leg afresh.
//
// The table is direct-mapped, nextPow2(4·N) slots of 32 bytes (128 KB at
// N=900), allocated on the first store; a colliding leg overwrites, and a
// path longer than legNodes nodes is routed every time. Like the path
// buffer, a Legs serves one goroutine.
type Legs struct {
	router *gpsr.Router
	slots  []legSlot
	shift  uint // 64 - log2(len(slots))
	// epoch is the upper half of the router generation the slots' tags
	// are the lower half of; the table is cleared when it moves.
	epoch uint64
	// path is the replayed path widened for TransmitPath, valid until the
	// next lookup.
	path [legNodes]int
}

// legNodes bounds a stored path, both ends included, so that a slot is
// 32 bytes and never straddles a cache line. At N=900 most storage legs
// are one to three hops; of the DIM owner→owner legs
// BenchmarkRangeQuerySteady's queries route, 0.6 % are longer than this,
// and no Pool leg is.
const legNodes = 11

// legSlot is one cached path. gen is the lower half of the router
// generation it was routed under, plus one; zero marks an empty slot.
type legSlot struct {
	gen, key uint32
	n        uint16
	path     [legNodes]uint16
}

// NewLegs returns an empty leg table for the routes of router, or nil —
// every leg routed — for a deployment whose ids do not fit a slot.
func NewLegs(router *gpsr.Router) *Legs {
	if n := router.Layout().N(); n < 2 || n > 1<<16 {
		return nil
	}
	return &Legs{router: router}
}

// slot returns the slot of the leg from → to, its key, and the tag a
// valid entry carries under the router's current generation.
func (l *Legs) slot(from, to int) (s *legSlot, key, gen uint32) {
	g := l.router.Generation()
	if g>>32 != l.epoch {
		clear(l.slots)
		l.epoch = g >> 32
	}
	key = uint32(from)<<16 | uint32(to)
	return &l.slots[uint64(key)*0x9E3779B97F4A7C15>>l.shift], key, uint32(g) + 1
}

// get returns the stored path of the leg from → to, valid until the next
// call, when the table holds it for the router's current generation. A
// nil table holds nothing.
func (l *Legs) get(from, to int) ([]int, bool) {
	if l == nil || l.slots == nil {
		return nil, false
	}
	s, key, gen := l.slot(from, to)
	if s.key != key || s.gen != gen {
		return nil, false
	}
	path := l.path[:s.n]
	for i := range path {
		path[i] = int(s.path[i])
	}
	return path, true
}

// put stores the path of a successful route from → to under the
// router's current generation; a nil table stores nothing.
func (l *Legs) put(from, to int, path []int) {
	if l == nil || len(path) > legNodes {
		return
	}
	if l.slots == nil {
		logSize := bits.Len(uint(4*l.router.Layout().N() - 1))
		l.slots, l.shift = make([]legSlot, 1<<logSize), uint(64-logSize)
	}
	s, key, gen := l.slot(from, to)
	s.gen, s.key, s.n = gen, key, uint16(len(path))
	for i, id := range path {
		s.path[i] = uint16(id)
	}
}
