package ght

import (
	"fmt"
	"sort"

	"pooldcs/internal/geo"
)

// Node failure in GHT follows the original paper's perimeter-refresh
// story: a hashed point's home is the node GPSR's perimeter walk delivers
// to, so when a home dies the alive node closest to the point takes over.
// The corpse's events are gone, and GHT keeps no replica of a home to
// restore them from — the baseline weakness Pool is measured against — so
// by the holding layer's rule every point that held events there is lost:
// its new home answers with what it holds, and the point counts unreached.
// Events stay in one Rows per node rather than per point: almost every
// point holds one or two events, and a Rows per point costs five times
// the memory (DESIGN §8).

// Failed reports whether a node has been marked failed; ids outside the
// deployment are not.
func (s *System) Failed(id int) bool { return id >= 0 && id < len(s.dead) && s.dead[id] }

// FailNode marks a node as failed and repairs the hash-to-home mapping:
// every cached home pointing at the corpse is re-hashed to the alive
// node closest to the hashed point — the node the alive-set perimeter
// walk would deliver to. The events the node held are lost, and so is
// every point that held one. Inserts and queries issued afterwards use
// the new homes transparently. Failing an already-failed node is a
// no-op.
func (s *System) FailNode(id int) error {
	if id < 0 || id >= len(s.dead) {
		return fmt.Errorf("ght: node %d out of range", id)
	}
	if s.dead[id] {
		return nil
	}
	s.dead[id] = true
	// Each event held here hashes straight to its point, homed here, and
	// no copy is left to restore it from.
	rows := &s.storage[id]
	for j := 0; j < rows.Len(); j++ {
		pt := s.HashPoint(rows.At(j).Values)
		h := s.homes[pt]
		h.lost = true
		s.homes[pt] = h
	}
	rows.Reset(nil)

	// Re-hash the cached homes deterministically (sorted by point) so
	// repair has a reproducible order regardless of map iteration.
	var orphaned []geo.Point
	for pt, h := range s.homes {
		if int(h.node) == id {
			orphaned = append(orphaned, pt)
		}
	}
	sort.Slice(orphaned, func(i, j int) bool {
		if orphaned[i].X != orphaned[j].X {
			return orphaned[i].X < orphaned[j].X
		}
		return orphaned[i].Y < orphaned[j].Y
	})
	for _, pt := range orphaned {
		next := s.nearestAliveTo(pt)
		if next < 0 {
			return fmt.Errorf("ght: no surviving node for hashed point %v", pt)
		}
		s.homes[pt] = homing{node: int32(next), lost: s.homes[pt].lost}
	}
	return nil
}

// RecoverNode brings a previously failed node back: it resumes routing,
// storing, and answering queries. Hashed points re-homed away from it
// are not reclaimed (their future events live at the new homes), and any
// storage the node held before failing is gone — a rebooted mote comes
// back empty. Recovering a node that never failed is a no-op.
func (s *System) RecoverNode(id int) {
	if id < 0 || id >= len(s.dead) || !s.dead[id] {
		return
	}
	s.dead[id] = false
}

// nearestAliveTo returns the alive node closest to p, the lowest id on an
// exact tie, or -1 when every node is dead.
func (s *System) nearestAliveTo(p geo.Point) int {
	id, _ := s.net.Layout().NearestFunc(p, func(id int) bool { return !s.dead[id] })
	return id
}
