package gpsr

import (
	"math/bits"
	"sync/atomic"
)

// routeMemo caches greedy forwarding decisions of node-addressed routes:
// (cur, dst) → the alive radio neighbour of cur closest to node dst. It is
// a direct-mapped table of nextPow2(16·N) one-word entries — 128 KB at
// N=900, 512 KB at N=3600 — so memory is bounded by the deployment, not by
// the traffic; a colliding key overwrites. An entry packs cur, dst and
// next+1 into memoIDBits each; the zero word is empty (no route looks up
// cur == dst, so no key is zero).
//
// Entries are loaded and stored atomically, and every writer of a key
// stores the same word (the choice is a pure function of the key and the
// exclusion set), so routes may share the table without a lock while the
// exclusion set is static. reset needs exclusive access.
type routeMemo struct {
	slots []atomic.Uint64
	shift uint // 64 - log2(len(slots))
}

const memoIDBits = 21

// newRouteMemo sizes a memo for n nodes; nil (every lookup a miss) for a
// deployment whose ids do not fit an entry.
func newRouteMemo(n int) *routeMemo {
	if n < 1 || n >= 1<<memoIDBits {
		return nil
	}
	logSize := bits.Len(uint(16*n - 1))
	return &routeMemo{slots: make([]atomic.Uint64, 1<<logSize), shift: uint(64 - logSize)}
}

func (m *routeMemo) slot(cur, dst int) (*atomic.Uint64, uint64) {
	key := uint64(cur)<<memoIDBits | uint64(dst)
	return &m.slots[key*0x9E3779B97F4A7C15>>m.shift], key
}

func (m *routeMemo) get(cur, dst int) (next int, ok bool) {
	slot, key := m.slot(cur, dst)
	e := slot.Load()
	return int(e&(1<<memoIDBits-1)) - 1, e>>memoIDBits == key
}

func (m *routeMemo) put(cur, dst, next int) {
	slot, key := m.slot(cur, dst)
	slot.Store(key<<memoIDBits | uint64(next+1))
}

// reset empties the table in place; a nil memo has nothing to forget.
func (m *routeMemo) reset() {
	if m != nil {
		clear(m.slots)
	}
}
