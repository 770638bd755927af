package pool

import (
	"fmt"

	"pooldcs/internal/dcs"
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

// FailNode marks a node as failed and carries out its repair plan
// (Repair) in zero time, every transfer charged as recovery traffic.
// Queries and inserts issued afterwards use the new index nodes
// transparently.
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

	plan := s.PlanRepair(id, nil)
	for _, el := range plan.Elections {
		if el.To < 0 {
			return fmt.Errorf("pool: no surviving node for cell %v", el.Cell)
		}
		s.Reelect(el.Cell, el.To)
	}

	// Each lost segment goes to its cell's new index node, restored from an
	// alive mirror's copy where the transfer gets through. A mirror
	// partitioned from the new index node cannot restore it now: its events
	// are lost with the primary.
	for _, l := range plan.Lost {
		x := s.RestoreLost(l)
		if x.From >= 0 && x.From != x.To {
			if _, err := s.unicast(x.From, x.To,
				network.KindControl, dcs.ReplyBytes(s.dims, len(x.Events))); err != nil {
				if !dcs.IsDegradable(err) {
					return fmt.Errorf("pool: recovery transfer: %w", err)
				}
				x.From, x.Events = -1, nil
			}
		}
		s.Handover(l, x.To, x.Events)
		if x.From >= 0 {
			s.recoveryMsgs++
		}
	}

	for _, key := range s.Rehomes(nil) {
		if err := s.rehome(s.Rehome(key)); err != nil {
			return err
		}
	}
	return nil
}

// rehome ships a re-home's copy to its new mirror, charged as recovery
// traffic. With no node to take it, or when the copy never arrives, the
// cell has no mirror until the next failure re-elects one: never claim
// phantom data.
func (s *System) rehome(x Transfer) error {
	if x.To >= 0 && len(x.Events) > 0 {
		_, err := s.unicast(x.From, x.To, network.KindControl, dcs.ReplyBytes(s.dims, len(x.Events)))
		switch {
		case err == nil:
			s.recoveryMsgs++
		case dcs.IsDegradable(err):
			x.To = -1
		default:
			return fmt.Errorf("pool: mirror re-home: %w", err)
		}
	}
	s.SetMirror(x.Key, x.To)
	if x.To < 0 {
		x.Events = nil
	}
	s.ReplaceMirror(x.Key, x.Events)
	return nil
}
