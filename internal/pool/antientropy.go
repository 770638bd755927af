package pool

import (
	"fmt"
	"slices"

	"pooldcs/internal/antientropy"
)

// Anti-entropy integration: every mirrored cell is a replica pair — the
// cell's primary storage (all segments, delegated ones included) against
// its mirror copy. The reconciler repairs the divergence the mirror
// protocol can leak: an insert whose primary store succeeded but whose
// mirror copy was lost to an undetected crash, and mirror copies
// orphaned by recovery re-homing.

// CheckPairs recomputes the replica pair list anti-entropy keeps between
// rounds and returns an error if the kept one differs, or nil. It is the
// part of CheckInvariants that holds in every state, replicas diverged by
// undetected crashes included.
func (s *System) CheckPairs() error {
	if s.pairsAt == s.version+1 && !slices.Equal(s.pairs, s.appendPairs(nil)) {
		return fmt.Errorf("pool: replica pair list kept since directory version %d is not what the directory says now", s.version)
	}
	return nil
}

// ReplicaPairs implements antientropy.PairSource over the mirrored
// cells. Pairs are enumerated in sorted (dim, cell) order so rounds are
// deterministic; cells whose mirror or holder is a detected corpse are
// skipped — FailNode re-homes them, and until then there is no replica
// to repair. The list depends on the directory alone (who mirrors what,
// who is believed alive, who indexes which cell), so it is rebuilt only
// after the directory has changed; CheckInvariants holds the kept list to
// a fresh one.
func (s *System) ReplicaPairs() []antientropy.Pair {
	if !s.replicate {
		return nil
	}
	if s.pairsAt != s.version+1 {
		s.pairs = s.appendPairs(s.pairs[:0])
		s.pairsAt = s.version + 1
	}
	return s.pairs
}

// appendPairs appends the replica pairs of the directory as it stands.
func (s *System) appendPairs(pairs []antientropy.Pair) []antientropy.Pair {
	for _, key := range s.MirrorKeys() {
		if _, ok := s.MirrorFor(key, -1); !ok || s.dead[s.IndexNode(key.Cell)] {
			continue
		}
		primary, mirror := s.copiesOf(key)
		pairs = append(pairs, antientropy.Pair{
			ID:      antientropy.PairID{Format: "pool P%d C(%d,%d)", A: key.Dim, B: key.Cell.X, C: key.Cell.Y},
			Primary: primary,
			Replica: mirror,
		})
	}
	return pairs
}
