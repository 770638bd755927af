package pool

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
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
	if changed, err := s.MarkFailed(id); err != nil || !changed {
		return err
	}
	if s.tracer.Enabled() {
		// Recovery traffic below (mirror restores, re-homing) lands in
		// the failure's span.
		s.tracer.Begin(trace.OpFail, id, "")
		defer s.tracer.End()
		s.tracer.Record(trace.TypeFault, id, 0, "")
	}

	// Re-elect index nodes for the failed node's cells.
	for _, cell := range s.Orphaned() {
		next := s.Elect(cell, -1)
		if next < 0 {
			return fmt.Errorf("pool: no surviving node for cell %v", cell)
		}
		s.Reelect(cell, next)
	}

	// Repair or drop storage segments held by the failed node.
	for key, segs := range s.store {
		for i := range segs {
			if segs[i].node != id {
				continue
			}
			lost := segs[i].events
			s.stored[id] -= len(lost)
			if s.replicate {
				if mirror, ok := s.MirrorFor(key, -1); ok {
					// Restore the segment from the mirror copy onto the
					// cell's (possibly re-elected) index node.
					target := s.holder[key.Cell]
					recovered := intersectBySeq(s.mirrorStore[key], lost)
					transferred := true
					if target != mirror {
						if _, err := s.unicast(mirror, target,
							network.KindControl, dcs.ReplyBytes(s.dims, len(recovered))); err != nil {
							if !dcs.IsDegradable(err) {
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
						s.putSegments(key, segs)
						continue
					}
				}
			}
			// No replica: the segment's events are lost.
			segs[i] = segment{node: s.holder[key.Cell]}
			s.putSegments(key, segs)
		}
	}

	// A mirror the failed node held is re-homed, and so is one that
	// re-election left on its own cell's new index node — one copy of the
	// data where there should be two: either way the next-closest alive
	// node takes a fresh copy of the primary segments.
	for key, mirror := range s.mirrors {
		index := s.holder[key.Cell]
		if mirror != id && mirror != index {
			continue
		}
		if err := s.recopyMirror(key, index, s.Elect(key.Cell, index)); err != nil {
			return err
		}
	}
	return nil
}

// recopyMirror makes node to the cell's mirror by shipping it the live
// copy from node from, charged as recovery traffic. With no node to take
// it (to < 0), or when the copy never arrives, the cell has no mirror
// until the next failure re-elects one: never claim phantom data.
func (s *System) recopyMirror(key Key, from, to int) error {
	var live []event.Event
	for _, seg := range s.store[key] {
		live = append(live, seg.events...)
	}
	if to >= 0 && len(live) > 0 {
		_, err := s.unicast(from, to, network.KindControl, dcs.ReplyBytes(s.dims, len(live)))
		switch {
		case err == nil:
			s.recoveryMsgs++
		case dcs.IsDegradable(err):
			to = -1
		default:
			return fmt.Errorf("pool: mirror re-home: %w", err)
		}
	}
	s.SetMirror(key, to)
	if to < 0 {
		live = nil
	}
	s.putMirror(key, live)
	return nil
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
