// Package pooltest holds a pool.System's replica pair walk to the
// reference its directory makes, for the tests of the packages that drive
// one: pool's own (through pool's pooltest_test.go), chaos's and
// experiment's.
package pooltest

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/pool"
)

// CheckReplicaPairs compares s.ReplicaPairs() with the pairs MirrorKeys,
// MirrorFor and IndexNode name — every cell with an alive mirror, in
// MirrorKeys' order — and returns the first
// difference, or nil. A pair's ID must be its cell's place in (dimension,
// column, row) order, its nodes the cell's index node and mirror, and its
// fingerprints those of the cell's segments and mirror copy.
func CheckReplicaPairs(s *pool.System) error {
	got := s.ReplicaPairs()
	n := 0
	for _, key := range s.MirrorKeys() {
		mirror, ok := s.MirrorFor(key, -1)
		index := s.IndexNode(key.Cell)
		if !ok {
			continue
		}
		if n == len(got) {
			return fmt.Errorf("pooltest: ReplicaPairs ends after %d pairs, before P%d %v", n, key.Dim, key.Cell)
		}
		var primary event.Fingerprint
		for _, seg := range s.Segments(key) {
			add(&primary, &seg.Rows)
		}
		var replica event.Fingerprint
		add(&replica, s.MirrorRows(key))
		p, pl := got[n], s.Pools()[key.Dim-1]
		slot := (key.Dim-1)*pl.Side*pl.Side + (key.Cell.X-pl.Pivot.X)*pl.Side + key.Cell.Y - pl.Pivot.Y
		if p.ID != slot || p.Primary.Node() != index || p.Replica.Node() != mirror ||
			p.Primary.Fingerprint() != primary || p.Replica.Fingerprint() != replica {
			return fmt.Errorf("pooltest: pair %d is slot %d at %d→%d, the directory says P%d %v, slot %d at %d→%d, or their fingerprints differ",
				n, p.ID, p.Primary.Node(), p.Replica.Node(), key.Dim, key.Cell, slot, index, mirror)
		}
		n++
	}
	if n != len(got) {
		return fmt.Errorf("pooltest: ReplicaPairs has %d pairs, the directory %d", len(got), n)
	}
	return nil
}

func add(f *event.Fingerprint, r *event.Rows) {
	for j := 0; j < r.Len(); j++ {
		f.Add(r.At(j).Seq)
	}
}
