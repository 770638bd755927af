package pool

import (
	"fmt"

	"pooldcs/internal/event"
)

// CheckInvariants verifies the system's internal consistency and returns
// the first violation found, or nil. It is exercised by the randomized
// state-machine tests after every operation batch, and is cheap enough to
// call from production diagnostics:
//
//  0. The directory is consistent with itself (CheckDirectory).
//  1. Every Pool cell has an alive index node.
//  2. Every storage segment is held by an alive node (post-repair).
//  3. Per-node stored counters equal the sum of their segments.
//  4. Every stored event's values place it in the (pool, cell) it is
//     stored under (Theorem 3.1 consistency) — so Theorem 3.2 lookups
//     can never miss it.
//  5. With replication on, every mirror holds a superset check: each
//     primary event also exists in the cell's mirror copy (mirrors may
//     briefly hold deleted leftovers only if deletion skipped them, which
//     Delete prevents).
//  6. Every memoised set summary still valid equals the one recomputed
//     from the copy's events (CheckSummaries).
func (s *System) CheckInvariants() error {
	if err := s.CheckDirectory(); err != nil {
		return err
	}
	// 1. Holders alive.
	if orphans := s.Orphaned(); len(orphans) > 0 {
		return fmt.Errorf("pool: cell %v held by dead node %d", orphans[0], s.holder[orphans[0]])
	}

	// 2 + 3. Segment holders alive; counters consistent.
	counted := make([]int, len(s.stored))
	for key, segs := range s.store {
		for _, seg := range segs {
			if seg.node < 0 || seg.node >= len(s.dead) {
				return fmt.Errorf("pool: cell %v segment held by invalid node %d", key.Cell, seg.node)
			}
			if s.dead[seg.node] && len(seg.events) > 0 {
				return fmt.Errorf("pool: cell %v segment with %d events held by dead node %d",
					key.Cell, len(seg.events), seg.node)
			}
			counted[seg.node] += len(seg.events)
		}
	}
	for node, want := range counted {
		if s.stored[node] != want {
			return fmt.Errorf("pool: node %d stored counter %d, segments hold %d", node, s.stored[node], want)
		}
	}
	for node, have := range s.stored {
		if have != counted[node] {
			return fmt.Errorf("pool: node %d stored counter %d, segments hold %d", node, have, counted[node])
		}
	}

	// 4. Theorem 3.1 placement consistency.
	for key, segs := range s.store {
		p := s.pools[key.Dim-1]
		for _, seg := range segs {
			for _, e := range seg.events {
				dims := greatestDimSet(e.Values)
				if !dims[key.Dim] {
					return fmt.Errorf("pool: event %d stored in P%d but its greatest value is elsewhere",
						e.Seq, key.Dim)
				}
				vd1 := e.Values[key.Dim-1]
				vd2 := event.SecondGreatest(e, key.Dim)
				if got := p.InsertCell(vd1, vd2); got != key.Cell {
					return fmt.Errorf("pool: event %d stored in %v of P%d, Theorem 3.1 places it in %v",
						e.Seq, key.Cell, key.Dim, got)
				}
			}
		}
	}

	// 5. Replication coverage.
	if s.replicate {
		for key, segs := range s.store {
			if _, ok := s.MirrorFor(key, -1); !ok {
				continue // mirror never elected or currently dead
			}
			inMirror := make(map[uint64]bool, len(s.mirrorStore[key]))
			for _, e := range s.mirrorStore[key] {
				inMirror[e.Seq] = true
			}
			for _, seg := range segs {
				for _, e := range seg.events {
					if !inMirror[e.Seq] {
						return fmt.Errorf("pool: event %d in cell %v missing from mirror", e.Seq, key.Cell)
					}
				}
			}
		}
	}
	return s.CheckSummaries()
}

// greatestDimSet returns the set of 1-based dimensions holding the
// maximum value.
func greatestDimSet(values []float64) map[int]bool {
	max := values[0]
	for _, v := range values[1:] {
		if v > max {
			max = v
		}
	}
	out := make(map[int]bool, 1)
	for i, v := range values {
		if v == max {
			out[i+1] = true
		}
	}
	return out
}
