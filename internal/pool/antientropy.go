package pool

import "pooldcs/internal/antientropy"

// Anti-entropy integration: every mirrored cell is a replica pair — the
// cell's primary storage (all segments, delegated ones included) against
// its mirror copy. The reconciler repairs the divergence the mirror
// protocol can leak: an insert whose primary store succeeded but whose
// mirror copy was lost to an undetected crash, and mirror copies
// orphaned by recovery re-homing.

// ReplicaPairs implements antientropy.PairSource over the mirrored
// cells, each pair's ID the cell's Key slot. Pairs run in MirrorKeys'
// (dimension, row, column) order so rounds are deterministic; cells whose
// mirror is a detected corpse are skipped — there is no replica to
// repair. A cell's index node is alive (CheckInvariants rule 1: FailNode
// marks a node and re-elects its cells in one call). Each call rebuilds
// the list in one buffer from the directory's tables, its Stores the
// cells' own records (holding.Store.Copies), so a round allocates
// nothing.
func (s *System) ReplicaPairs() []antientropy.Pair {
	if !s.replicate {
		return nil
	}
	s.pairs = s.pairs[:0]
	for _, p := range s.pools {
		for vo := 0; vo < p.Side; vo++ {
			for ho := 0; ho < p.Side; ho++ {
				key := Key{Dim: p.Dim, Cell: p.Pivot.Add(ho, vo)}
				i := s.slot(key)
				m, index := s.mirrors[i], s.holder[s.gridIndex(key.Cell)]
				if m < 0 || s.dead[m] {
					continue
				}
				primary, mirror := s.Copies(key, int(index), int(m))
				s.pairs = append(s.pairs, antientropy.Pair{ID: i, Primary: primary, Replica: mirror})
			}
		}
	}
	return s.pairs
}
