package pool

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/network"
)

// Delete removes every stored event matching the query and returns how
// many were removed. The deletion is disseminated exactly like a query
// (sink → splitters → relevant cells, Theorem 3.2 guarantees every
// matching event's cell is visited); each affected index node prunes its
// segments and mirrors, acknowledging with a constant-size reply.
// Sensor-network deployments use this to retire stale readings and
// reclaim the motes' scarce storage. Every reachable cell is pruned and
// counted; cells left unreached are named in the error.
func (s *System) Delete(sink int, q event.Query) (int, error) {
	if err := s.Resolve(q, &s.plan); err != nil {
		return 0, err
	}
	// A cell that removed anything acknowledges to its splitter, and every
	// splitter acknowledges to the sink.
	removed, ack := 0, dcs.ReplyBytes(s.dims, 0)
	var comp dcs.Completeness
	err := s.walk(sink, visitor{
		kind: network.KindQuery,
		cell: func(key Key, node int, mirror bool) (int, int, bool, error) {
			n, err := s.deleteFromCell(key, node, mirror)
			removed += n
			if n == 0 {
				return 0, 0, false, err
			}
			return n, ack, false, err
		},
		sink: func(int) int { return ack },
	}, &comp)
	if err == nil {
		err = incomplete("delete", comp)
	}
	return removed, err
}

// deleteFromCell prunes matching events from every segment of a cell
// (reaching delegated segments costs the usual extra exchange) and from
// the cell's mirror. Served at the mirror, it prunes the mirror's copy
// alone: the index node that could not be reached keeps its own until its
// failure is detected, and the restore that follows takes only what the
// mirror still holds.
func (s *System) deleteFromCell(key Key, node int, mirror bool) (int, error) {
	rq, qBytes := s.plan.Query, dcs.QueryBytes(s.dims)
	if mirror {
		return s.PruneMirror(key, rq.Matches, true), nil
	}
	removed := 0
	for i, seg := range s.Segments(key) {
		if len(seg.Rows.AppendMatches(nil, rq)) == 0 {
			continue
		}
		if seg.Node != node {
			// Reach the delegate and hear its ack.
			if _, err := s.unicast(node, seg.Node, network.KindQuery, qBytes); err != nil {
				return removed, fmt.Errorf("pool: delete to delegate: %w", err)
			}
			if _, err := s.unicast(seg.Node, node, network.KindReply,
				dcs.ReplyBytes(s.dims, 0)); err != nil {
				return removed, fmt.Errorf("pool: delete delegate ack: %w", err)
			}
		}
		removed += s.Prune(key, i, rq.Matches)
	}
	if m := s.Mirror(key); removed > 0 && m >= 0 {
		s.PruneMirror(key, rq.Matches, false)
		if m != node && !s.dead[m] {
			if _, err := s.unicast(node, m, network.KindControl, qBytes); err != nil {
				return removed, fmt.Errorf("pool: delete mirror: %w", err)
			}
		}
	}
	return removed, nil
}
