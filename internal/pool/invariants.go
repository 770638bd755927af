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
//  2. Every storage segment holding events is held by an alive node.
//  3. Per-node stored counters equal the sum of their segments.
//  4. Every stored event's values place it in the (pool, cell) it is
//     stored under (Theorem 3.1 consistency) — so Theorem 3.2 lookups
//     can never miss it.
//  5. With replication on, each primary event also exists in the copy of
//     the cell's alive mirror (Delete prunes both).
//  6. Every memoised set summary still valid equals the one recomputed
//     from the copy's events, and the kept replica pair list is the
//     directory's (CheckSummaries).
//
// Rules 2, 3, 5 and the memo half of 6 are the Store's, which the node
// actor engine embeds too.
func (s *System) CheckInvariants() error {
	if err := s.CheckDirectory(); err != nil {
		return err
	}
	// 1. Holders alive.
	if orphans := s.Orphaned(); len(orphans) > 0 {
		return fmt.Errorf("pool: cell %v held by dead node %d", orphans[0], s.holder[orphans[0]])
	}

	// 4. Theorem 3.1 placement consistency.
	for key, segs := range s.segs {
		for _, seg := range segs {
			for _, e := range seg.events {
				if e.Values[key.Dim-1] != event.Greatest(e) {
					return fmt.Errorf("pool: event %d stored in P%d but its greatest value is elsewhere",
						e.Seq, key.Dim)
				}
				if got := s.candidate(e, key.Dim); got != key.Cell {
					return fmt.Errorf("pool: event %d stored in %v of P%d, Theorem 3.1 places it in %v",
						e.Seq, key.Cell, key.Dim, got)
				}
			}
		}
	}

	for _, check := range []func() error{s.CheckStore, s.CheckCoverage, s.CheckSummaries} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}
