package dim

import (
	"fmt"

	"pooldcs/internal/geo"
	"pooldcs/internal/trace"
)

// DIM stores each event in exactly one zone with no replica — the paper's
// zone structure has no mirroring to recover from — so a node failure
// runs the holding layer's crash with nothing to restore: every zone the
// failed node owned (its own zone plus backup ownership of empty zones)
// is re-homed to the closest surviving node, which takes the zone's
// emptied segment over. Later inserts and queries route around the
// corpse instead of erroring, and a zone that lost events is lost for
// good: its new owner answers with what it holds, and the zone counts as
// unreached.

// Failed reports whether a node has been marked failed; ids outside the
// deployment are not.
func (s *System) Failed(id int) bool { return id >= 0 && id < len(s.dead) && s.dead[id] }

// FailNode marks a node as failed: its stored events are lost (DIM keeps
// a single copy per zone), every zone it owned is re-homed to the closest
// surviving node, and each zone that held events is lost. Failing an
// already-failed node is a no-op.
func (s *System) FailNode(id int) error {
	if id < 0 || id >= len(s.dead) {
		return fmt.Errorf("dim: node %d out of range", id)
	}
	if s.dead[id] {
		return nil
	}
	s.dead[id] = true
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpFail, id, "")
		defer s.tracer.End()
		s.tracer.Record(trace.TypeFault, id, s.Stored(id), "")
	}
	// The node's events die with it.
	emptied := s.Crash(id)

	// Re-home the zones it owned. ZoneOf reads s.zones through the tree,
	// so updating Owner redirects future inserts too.
	for i := range s.zones {
		if s.zones[i].Owner != id {
			continue
		}
		next := s.nearestAlive(s.zones[i].Rect.Center())
		if next < 0 {
			return fmt.Errorf("dim: no surviving node for zone %v", s.zones[i].Code)
		}
		s.zones[i].Owner = next
		s.owned[next] = append(s.owned[next], int32(i))
	}
	s.owned[id] = nil
	for _, l := range emptied {
		s.Handover(l, s.zones[l.Unit].Owner, nil)
	}
	return nil
}

// RecoverNode brings a previously failed node back: it can store and
// answer again, but zones re-homed away from it are not reclaimed and
// its pre-failure storage is gone — a rebooted mote comes back empty.
// Recovering a node that never failed is a no-op.
func (s *System) RecoverNode(id int) {
	if id < 0 || id >= len(s.dead) || !s.dead[id] {
		return
	}
	s.dead[id] = false
}

// nearestAlive returns the alive node closest to p, the lowest id on an
// exact tie, or -1 when every node is dead.
func (s *System) nearestAlive(p geo.Point) int {
	id, _ := s.net.Layout().NearestFunc(p, func(id int) bool { return !s.dead[id] })
	return id
}
