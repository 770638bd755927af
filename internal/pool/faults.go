package pool

import (
	"fmt"
	"math"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/network"
	"pooldcs/internal/trace"
)

// Replication and node failure are extensions beyond the paper (which
// assumes reliable nodes): cell-level mirroring in the spirit of the
// resilient-DCS work the paper cites ([7] Ghose et al.). When enabled,
// every event stored in a cell is also copied to the cell's mirror node —
// the second-closest node to the cell centre, one hop from the index
// node. When a node fails, each of its cells re-elects the closest
// surviving node as index; with mirroring the cell's data is recovered
// from the mirror, otherwise the failed node's segments are lost.

// WithReplication enables cell-level mirroring.
func WithReplication() Option {
	return optionFunc(func(c *config) { c.replicate = true })
}

// Failed reports whether a node has been marked failed.
func (s *System) Failed(id int) bool { return s.dead[id] }

// RecoveryMessages returns the control messages spent restoring cells
// after failures.
func (s *System) RecoveryMessages() uint64 { return s.recoveryMsgs }

// FailNode marks a node as failed and repairs every Pool cell it served:
// the closest surviving node becomes the cell's index node, and the
// cell's storage segments held by the failed node are restored from the
// mirror when replication is enabled (charged as recovery traffic) or
// dropped otherwise. Queries and inserts issued afterwards use the new
// index node transparently.
func (s *System) FailNode(id int) error {
	if id < 0 || id >= len(s.dead) {
		return fmt.Errorf("pool: node %d out of range", id)
	}
	if s.dead[id] {
		return nil
	}
	s.dead[id] = true
	if s.tracer.Enabled() {
		// Recovery traffic below (mirror restores, re-homing) lands in
		// the failure's span.
		s.tracer.Begin(trace.OpFail, id, "")
		defer s.tracer.End()
		s.tracer.Record(trace.TypeFault, id, 0, "")
	}

	// Re-elect index nodes for the failed node's cells.
	for cell, holder := range s.holder {
		if holder != id {
			continue
		}
		next := s.nearestAliveTo(s.grid.Center(cell), -1)
		if next < 0 {
			return fmt.Errorf("pool: no surviving node for cell %v", cell)
		}
		s.holder[cell] = next
		s.splitters.Invalidate()
	}

	// Repair or drop storage segments held by the failed node.
	for key, segs := range s.store {
		changed := false
		for i := range segs {
			if segs[i].node != id {
				continue
			}
			lost := segs[i].events
			s.stored[id] -= len(lost)
			if s.replicate {
				mirror := s.mirrors[key]
				if mirror >= 0 && !s.dead[mirror] {
					// Restore the segment from the mirror copy onto the
					// cell's (possibly re-elected) index node.
					target := s.holder[key.cell]
					recovered := intersectBySeq(s.mirrorStore[key], lost)
					transferred := true
					if target != mirror {
						if _, err := s.unicast(mirror, target,
							network.KindControl, dcs.ReplyBytes(s.dims, len(recovered))); err != nil {
							if !degradable(err) {
								return fmt.Errorf("pool: recovery transfer: %w", err)
							}
							// The mirror is partitioned from the new index
							// node: the segment cannot be restored now and
							// its events are lost with the primary.
							transferred = false
						}
					}
					if transferred {
						segs[i] = segment{node: target, events: recovered}
						s.stored[target] += len(recovered)
						s.recoveryMsgs++
						changed = true
						continue
					}
				}
			}
			// No replica: the segment's events are lost.
			segs[i] = segment{node: s.holder[key.cell]}
			changed = true
		}
		if changed {
			s.store[key] = segs
		}
	}

	// Mirrors held by the failed node are re-homed (their content was a
	// copy; re-copy from the primary segments).
	if s.replicate {
		for key, mirror := range s.mirrors {
			if mirror != id {
				continue
			}
			index := s.holder[key.cell]
			next := s.nearestAliveTo(s.grid.Center(key.cell), index)
			s.mirrors[key] = next
			if next >= 0 {
				var live []event.Event
				for _, seg := range s.store[key] {
					live = append(live, seg.events...)
				}
				if len(live) > 0 && index != next {
					if _, err := s.unicast(index, next,
						network.KindControl, dcs.ReplyBytes(s.dims, len(live))); err != nil {
						if !degradable(err) {
							return fmt.Errorf("pool: mirror re-home: %w", err)
						}
						// The copy never arrived: the cell has no mirror
						// until the next failure re-elects one. Never
						// claim phantom data.
						s.mirrors[key] = -1
						delete(s.mirrorStore, key)
						continue
					}
					s.recoveryMsgs++
				}
				s.mirrorStore[key] = append([]event.Event(nil), live...)
			}
		}

		// Re-election can land a cell's index role on its own mirror
		// node, leaving one copy of the data: split the roles again by
		// moving the mirror copy to the next-closest alive node.
		for key, mirror := range s.mirrors {
			if mirror < 0 || mirror != s.holder[key.cell] {
				continue
			}
			next := s.nearestAliveTo(s.grid.Center(key.cell), mirror)
			if next < 0 {
				s.mirrors[key] = -1
				delete(s.mirrorStore, key)
				continue
			}
			var live []event.Event
			for _, seg := range s.store[key] {
				live = append(live, seg.events...)
			}
			if len(live) > 0 {
				if _, err := s.unicast(mirror, next,
					network.KindControl, dcs.ReplyBytes(s.dims, len(live))); err != nil {
					if !degradable(err) {
						return fmt.Errorf("pool: mirror split: %w", err)
					}
					s.mirrors[key] = -1
					delete(s.mirrorStore, key)
					continue
				}
				s.recoveryMsgs++
			}
			s.mirrors[key] = next
			s.mirrorStore[key] = append([]event.Event(nil), live...)
		}
	}
	return nil
}

// RecoverNode brings a previously failed node back: it resumes routing,
// storing, and answering queries. Cells re-elected away from it are not
// reclaimed (their state lives at the new index nodes), and any storage
// the node held before failing is gone — a rebooted mote comes back
// empty. Recovering a node that never failed is a no-op.
func (s *System) RecoverNode(id int) {
	if id < 0 || id >= len(s.dead) || !s.dead[id] {
		return
	}
	s.dead[id] = false
}

// nearestAliveTo returns the alive node closest to p, excluding one id,
// or -1 when every node is dead.
func (s *System) nearestAliveTo(p geo.Point, exclude int) int {
	return NearestAlive(s.net.Layout(), s.dead, p, exclude)
}

// NearestAlive returns the alive node closest to p, excluding one id
// (pass -1 to exclude nobody), or -1 when every node is dead. This is
// the pure re-election and mirror-selection rule both the synchronous
// system and the node actor engine apply, so a message-driven repair
// converges on exactly the state the global-knowledge repair computes.
func NearestAlive(layout *field.Layout, dead []bool, p geo.Point, exclude int) int {
	best, bestD2 := -1, math.Inf(1)
	for i := 0; i < layout.N(); i++ {
		if i == exclude || dead[i] {
			continue
		}
		if d2 := layout.Pos(i).Dist2(p); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

// intersectBySeq returns the mirror events whose sequence numbers appear
// in the lost segment, preserving mirror order.
func intersectBySeq(mirror, lost []event.Event) []event.Event {
	want := make(map[uint64]bool, len(lost))
	for _, e := range lost {
		want[e.Seq] = true
	}
	var out []event.Event
	for _, e := range mirror {
		if want[e.Seq] {
			out = append(out, e)
		}
	}
	return out
}
