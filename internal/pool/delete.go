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
// reclaim the motes' scarce storage.
func (s *System) Delete(sink int, q event.Query) (int, error) {
	var plan Plan
	if err := s.Resolve(q, &plan); err != nil {
		return 0, err
	}
	rq := plan.Query
	qBytes := dcs.QueryBytes(s.dims)

	removed := 0
	for _, f := range plan.Fanouts {
		p, cells := f.Pool, f.Cells
		splitter := s.SplitterFor(p, sink)
		if _, err := s.unicast(sink, splitter, network.KindQuery, qBytes); err != nil {
			return removed, fmt.Errorf("pool: delete to splitter: %w", err)
		}
		for _, c := range cells {
			index := s.holder[c]
			if index != splitter {
				if _, err := s.unicast(splitter, index, network.KindQuery, qBytes); err != nil {
					return removed, fmt.Errorf("pool: delete to cell %v: %w", c, err)
				}
			}
			key := Key{Dim: p.Dim, Cell: c}
			n, err := s.deleteFromCell(key, index, rq, qBytes)
			if err != nil {
				return removed, err
			}
			if n == 0 {
				continue
			}
			removed += n
			if index != splitter {
				if _, err := s.unicast(index, splitter, network.KindReply,
					dcs.ReplyBytes(s.dims, 0)); err != nil {
					return removed, fmt.Errorf("pool: delete ack from cell %v: %w", c, err)
				}
			}
		}
		if _, err := s.unicast(splitter, sink, network.KindReply,
			dcs.ReplyBytes(s.dims, 0)); err != nil {
			return removed, fmt.Errorf("pool: delete ack to sink: %w", err)
		}
	}
	return removed, nil
}

// deleteFromCell prunes matching events from every segment of a cell
// (reaching delegated segments costs the usual extra exchange) and from
// the cell's mirror.
func (s *System) deleteFromCell(key Key, index int, rq event.Query, qBytes int) (int, error) {
	removed := 0
	segs := s.store[key]
	for i := range segs {
		kept := segs[i].events[:0]
		dropped := 0
		for _, e := range segs[i].events {
			if rq.Matches(e) {
				dropped++
				continue
			}
			kept = append(kept, e)
		}
		if dropped == 0 {
			continue
		}
		if segs[i].node != index {
			// Reach the delegate and hear its ack.
			if _, err := s.unicast(index, segs[i].node, network.KindQuery, qBytes); err != nil {
				return removed, fmt.Errorf("pool: delete to delegate: %w", err)
			}
			if _, err := s.unicast(segs[i].node, index, network.KindReply,
				dcs.ReplyBytes(s.dims, 0)); err != nil {
				return removed, fmt.Errorf("pool: delete delegate ack: %w", err)
			}
		}
		segs[i].events = kept
		s.stored[segs[i].node] -= dropped
		removed += dropped
	}
	if removed > 0 {
		s.store[key] = segs
	}
	if s.replicate && removed > 0 {
		if mirror, ok := s.mirrors[key]; ok && mirror >= 0 {
			kept := s.mirrorStore[key][:0]
			for _, e := range s.mirrorStore[key] {
				if !rq.Matches(e) {
					kept = append(kept, e)
				}
			}
			s.mirrorStore[key] = kept
			if mirror != index && !s.dead[mirror] {
				if _, err := s.unicast(index, mirror, network.KindControl, qBytes); err != nil {
					return removed, fmt.Errorf("pool: delete mirror: %w", err)
				}
			}
		}
	}
	return removed, nil
}
