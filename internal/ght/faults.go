package ght

import (
	"fmt"
	"sort"

	"pooldcs/internal/geo"
)

// Node failure in GHT follows the original paper's perimeter-refresh
// story: the home node of a hashed point is, by definition, the node
// GPSR's perimeter walk delivers to — so when a home dies, the *new*
// home is simply the alive node geographically closest to the hashed
// point, and the repair re-targets every cached home accordingly. The
// dead node's stored events are gone (a mote's RAM does not survive a
// crash); GHT keeps no per-key replica of a single home, which is
// precisely the baseline weakness the paper's Pool scheme is measured
// against. Structured replication softens the blow structurally rather
// than by copying: each key's events are spread over 4^d mirror homes,
// so one crash loses only the share homed at the corpse while the
// query's mirror walk keeps serving the rest.

// Failed reports whether a node has been marked failed; ids outside the
// deployment are not.
func (s *System) Failed(id int) bool { return id >= 0 && id < len(s.dead) && s.dead[id] }

// FailNode marks a node as failed and repairs the hash-to-home mapping:
// every cached home pointing at the corpse is re-hashed to the alive
// node closest to the hashed point — the node the alive-set perimeter
// walk would deliver to. The events the node held are lost. Inserts and
// queries issued afterwards use the new homes transparently. Failing an
// already-failed node is a no-op.
func (s *System) FailNode(id int) error {
	if id < 0 || id >= len(s.dead) {
		return fmt.Errorf("ght: node %d out of range", id)
	}
	if s.dead[id] {
		return nil
	}
	s.dead[id] = true
	s.storage[id].Reset(nil)

	// Re-hash the cached homes deterministically (sorted by point) so
	// repair has a reproducible order regardless of map iteration.
	var orphaned []geo.Point
	for pt, home := range s.homes {
		if home == id {
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
		s.homes[pt] = next
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
