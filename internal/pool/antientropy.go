package pool

import (
	"fmt"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
)

// Anti-entropy integration: every mirrored cell is a replica pair — the
// cell's primary storage (all segments, delegated ones included) against
// its mirror copy. The reconciler repairs the divergence the mirror
// protocol can leak: an insert whose primary store succeeded but whose
// mirror copy was lost to an undetected crash, and mirror copies
// orphaned by recovery re-homing.

// ReplicaPairs implements antientropy.PairSource over the mirrored
// cells. Pairs are enumerated in sorted (dim, cell) order so rounds are
// deterministic; cells whose mirror or holder is a detected corpse are
// skipped — FailNode re-homes them, and until then there is no replica
// to repair.
func (s *System) ReplicaPairs() []antientropy.Pair {
	if !s.replicate {
		return nil
	}
	keys := s.MirrorKeys()
	pairs := make([]antientropy.Pair, 0, len(keys))
	for _, key := range keys {
		if _, ok := s.MirrorFor(key, -1); !ok || s.dead[s.holder[key.Cell]] {
			continue
		}
		pairs = append(pairs, antientropy.Pair{
			Label:   fmt.Sprintf("pool P%d %v", key.Dim, key.Cell),
			Primary: cellPrimary{s: s, key: key},
			Replica: cellMirror{s: s, key: key},
		})
	}
	return pairs
}

// cellPrimary adapts a cell's primary storage segments to
// antientropy.Store.
type cellPrimary struct {
	s   *System
	key Key
}

func (c cellPrimary) Node() int { return c.s.holder[c.key.Cell] }

func (c cellPrimary) AppendDigests(buf []uint64) []uint64 {
	for _, seg := range c.s.store[c.key] {
		for _, e := range seg.events {
			buf = append(buf, antientropy.Digest(e))
		}
	}
	return buf
}

func (c cellPrimary) Fetch(d uint64) (event.Event, bool) {
	for _, seg := range c.s.store[c.key] {
		for _, e := range seg.events {
			if antientropy.Digest(e) == d {
				return e, true
			}
		}
	}
	return event.Event{}, false
}

// Insert lands a repaired event in the cell's active segment, bypassing
// the workload-sharing quota: repair restores lost copies, it does not
// open delegations.
func (c cellPrimary) Insert(e event.Event) {
	segs := c.s.store[c.key]
	if len(segs) == 0 {
		segs = append(segs, segment{node: c.s.holder[c.key.Cell]})
	}
	active := &segs[len(segs)-1]
	active.events = append(active.events, e)
	c.s.stored[active.node]++
	c.s.store[c.key] = segs
}

func (c cellPrimary) Len() int {
	n := 0
	for _, seg := range c.s.store[c.key] {
		n += len(seg.events)
	}
	return n
}

// cellMirror adapts a cell's mirror copy to antientropy.Store.
type cellMirror struct {
	s   *System
	key Key
}

func (c cellMirror) Node() int { return c.s.mirrors[c.key] }

func (c cellMirror) AppendDigests(buf []uint64) []uint64 {
	for _, e := range c.s.mirrorStore[c.key] {
		buf = append(buf, antientropy.Digest(e))
	}
	return buf
}

func (c cellMirror) Fetch(d uint64) (event.Event, bool) {
	for _, e := range c.s.mirrorStore[c.key] {
		if antientropy.Digest(e) == d {
			return e, true
		}
	}
	return event.Event{}, false
}

func (c cellMirror) Insert(e event.Event) {
	c.s.mirrorStore[c.key] = append(c.s.mirrorStore[c.key], e)
}

func (c cellMirror) Len() int { return len(c.s.mirrorStore[c.key]) }
