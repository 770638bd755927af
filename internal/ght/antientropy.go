package ght

import (
	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
	"pooldcs/internal/geo"
)

// Anti-entropy integration for structured replication. SR as specified
// stores each event at only the mirror image nearest its detecting
// sensor, so the 4^d mirror homes hold *disjoint shares* of a root's
// events — one crash loses that home's share outright (the ROADMAP gap).
// Running set reconciliation between sibling homes converges every
// mirror to the union of the shares, turning SR's structural spreading
// into genuine replication: after convergence, losing a home loses
// nothing that the siblings don't still hold.
//
// Pairs form a star per root — the first resolved mirror home is the
// hub, paired with each distinct sibling — so repeated rounds converge
// all 4^d homes without quadratic pair counts.

// ReplicaPairs implements antientropy.PairSource over the roots seen by
// Insert. Roots enumerate in first-insert order and mirror slots in
// MirrorPoints order, so rounds are deterministic.
func (s *System) ReplicaPairs() []antientropy.Pair {
	if s.replDepth <= 0 || len(s.roots) == 0 {
		return nil
	}
	var pairs []antientropy.Pair
	for ri, root := range s.roots {
		mirrors := s.MirrorPoints(root)
		hub, hubSlot := -1, -1
		for mi, pt := range mirrors {
			anchor := s.nearestAliveTo(pt)
			if anchor < 0 {
				continue
			}
			home, _, err := s.home(anchor, pt)
			if err != nil || home < 0 || s.dead[home] {
				continue
			}
			if hub < 0 {
				hub, hubSlot = home, mi
				continue
			}
			if home == hub {
				continue
			}
			pairs = append(pairs, antientropy.Pair{
				ID:      antientropy.PairID{Format: "ght r%d M%d-M%d", A: ri, B: hubSlot, C: mi},
				Primary: shareStore{s: s, root: root, node: hub},
				Replica: shareStore{s: s, root: root, node: home},
			})
		}
	}
	return pairs
}

// recordRoot remembers a root point the first time an event hashes to
// it, keeping enumeration order deterministic.
func (s *System) recordRoot(root geo.Point) {
	if s.rootSet == nil {
		s.rootSet = make(map[geo.Point]bool)
	}
	if s.rootSet[root] {
		return
	}
	s.rootSet[root] = true
	s.roots = append(s.roots, root)
}

// shareStore adapts one mirror home's share of a root's events to
// antientropy.Store: the node's storage filtered to events hashing to
// the root.
type shareStore struct {
	s    *System
	root geo.Point
	node int
}

func (st shareStore) Node() int { return st.node }

func (st shareStore) AppendDigests(buf []uint64) []uint64 {
	rows := &st.s.storage[st.node]
	for j := 0; j < rows.Len(); j++ {
		if e := rows.At(j); st.s.HashPoint(e.Values) == st.root {
			buf = append(buf, antientropy.Digest(e))
		}
	}
	return buf
}

// Fetch resolves a session's requested digests in one pass over the
// node's storage: each stored event of the share is hashed once, however
// many digests are asked for.
func (st shareStore) Fetch(digests []uint64, buf []event.Event) []event.Event {
	slot := make(map[uint64]int, len(digests))
	for i, d := range digests {
		slot[d] = i
	}
	found := make([]event.Event, len(digests))
	rows := &st.s.storage[st.node]
	for j := 0; j < rows.Len() && len(slot) > 0; j++ {
		e := rows.At(j)
		if st.s.HashPoint(e.Values) != st.root {
			continue
		}
		d := antientropy.Digest(e)
		if i, ok := slot[d]; ok {
			found[i] = e
			delete(slot, d)
		}
	}
	for _, e := range found {
		if e.Values != nil {
			buf = append(buf, e)
		}
	}
	return buf
}

func (st shareStore) Insert(e event.Event) {
	st.s.storage[st.node].Append(e)
}

func (st shareStore) Len() int { return len(st.AppendDigests(nil)) }
