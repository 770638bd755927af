package pool

import (
	"fmt"
	"slices"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
)

// Anti-entropy integration: every mirrored cell is a replica pair — the
// cell's primary storage (all segments, delegated ones included) against
// its mirror copy. The reconciler repairs the divergence the mirror
// protocol can leak: an insert whose primary store succeeded but whose
// mirror copy was lost to an undetected crash, and mirror copies
// orphaned by recovery re-homing.

// copySummary memoises the set summary of one copy of a cell — the digest
// column of its events and symbol 0 of its rateless stream — so a
// reconciliation session between two copies that agree reads six words
// and no event. putSegments and putMirror, the only writers of the two
// stores, clear valid; CheckInvariants recomputes every valid one.
type copySummary struct {
	antientropy.Summary
	valid bool
}

// cellSummaries holds the memos of a cell's two copies.
type cellSummaries struct{ primary, mirror copySummary }

// summariesOf returns the cell's memos, creating them (invalid) on first
// use.
func (s *System) summariesOf(key Key) *cellSummaries {
	m := s.summaries[key]
	if m == nil {
		m = &cellSummaries{}
		s.summaries[key] = m
	}
	return m
}

// putSegments is the only writer of store[key], in-place edits of a
// cell's segments included: it ends the life of the primary copy's
// summary. Without replication nobody keeps one and the lookup finds an
// empty table.
func (s *System) putSegments(key Key, segs []segment) {
	s.store[key] = segs
	if m := s.summaries[key]; m != nil {
		m.primary.valid = false
	}
}

// putMirror is the only writer of mirrorStore[key].
func (s *System) putMirror(key Key, events []event.Event) {
	s.mirrorStore[key] = events
	if m := s.summaries[key]; m != nil {
		m.mirror.valid = false
	}
}

// appendDigests appends the digests of a cell copy's events in storage
// order.
func (s *System) appendDigests(buf []uint64, key Key, mirror bool) []uint64 {
	if mirror {
		for _, e := range s.mirrorStore[key] {
			buf = append(buf, antientropy.Digest(e))
		}
		return buf
	}
	for _, seg := range s.store[key] {
		for _, e := range seg.events {
			buf = append(buf, antientropy.Digest(e))
		}
	}
	return buf
}

// summary returns the memo's summary, rebuilding it from the copy's
// events when a mutation has invalidated it.
func (s *System) summary(m *copySummary, key Key, mirror bool) *antientropy.Summary {
	if !m.valid {
		s.digestBuf = s.appendDigests(s.digestBuf[:0], key, mirror)
		antientropy.Summarize(&m.Summary, s.digestBuf)
		m.valid = true
	}
	return &m.Summary
}

// CheckSummaries recomputes what anti-entropy keeps between rounds — the
// replica pair list, and every valid memo from the events it claims to
// summarise — and returns the first mismatch, or nil: a mutation site
// that forgot to invalidate would otherwise show up as a silently missed
// repair. It is the part of CheckInvariants that holds in every state,
// replicas diverged by undetected crashes included.
func (s *System) CheckSummaries() error {
	if s.pairsAt == s.version+1 && !slices.Equal(s.pairs, s.appendPairs(nil)) {
		return fmt.Errorf("pool: replica pair list kept since directory version %d is not what the directory says now", s.version)
	}
	var fresh antientropy.Summary
	var digests []uint64
	check := func(key Key, memo *copySummary, mirror bool) error {
		if !memo.valid {
			return nil
		}
		digests = s.appendDigests(digests[:0], key, mirror)
		antientropy.Summarize(&fresh, digests)
		if !fresh.Equal(&memo.Summary) {
			return fmt.Errorf("pool: stale set summary for cell %v of P%d (mirror copy: %v): memo says %+v, events say %+v",
				key.Cell, key.Dim, mirror, memo.Zero, fresh.Zero)
		}
		return nil
	}
	for key, m := range s.summaries {
		if err := check(key, &m.primary, false); err != nil {
			return err
		}
		if err := check(key, &m.mirror, true); err != nil {
			return err
		}
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
		if _, ok := s.MirrorFor(key, -1); !ok || s.dead[s.holder[key.Cell]] {
			continue
		}
		m := s.summariesOf(key)
		pairs = append(pairs, antientropy.Pair{
			ID:      antientropy.PairID{Format: "pool P%d C(%d,%d)", A: key.Dim, B: key.Cell.X, C: key.Cell.Y},
			Primary: cellPrimary{s: s, key: key, memo: &m.primary},
			Replica: cellMirror{s: s, key: key, memo: &m.mirror},
		})
	}
	return pairs
}

// cellPrimary adapts a cell's primary storage segments to
// antientropy.Store.
type cellPrimary struct {
	s    *System
	key  Key
	memo *copySummary
}

func (c cellPrimary) Node() int { return c.s.holder[c.key.Cell] }

func (c cellPrimary) Summary() *antientropy.Summary { return c.s.summary(c.memo, c.key, false) }

func (c cellPrimary) AppendDigests(buf []uint64) []uint64 {
	return c.s.appendDigests(buf, c.key, false)
}

func (c cellPrimary) Fetch(digests []uint64, buf []event.Event) []event.Event {
	sum, segs := c.Summary(), c.s.store[c.key]
	for _, d := range digests {
		i, ok := slices.BinarySearch(sum.Keys, d)
		if !ok {
			continue
		}
		pos := int(sum.First[i])
		for _, seg := range segs {
			if pos < len(seg.events) {
				buf = append(buf, seg.events[pos])
				break
			}
			pos -= len(seg.events)
		}
	}
	return buf
}

// Insert lands a repaired event in the cell's active segment, bypassing
// the workload-sharing quota: repair restores lost copies, it does not
// open delegations.
func (c cellPrimary) Insert(e event.Event) {
	segs := c.s.store[c.key]
	if len(segs) == 0 {
		segs = append(segs, segment{node: c.s.holder[c.key.Cell]})
	}
	active := &segs[len(segs)-1]
	active.events = append(active.events, e)
	c.s.stored[active.node]++
	c.s.putSegments(c.key, segs)
}

func (c cellPrimary) Len() int {
	n := 0
	for _, seg := range c.s.store[c.key] {
		n += len(seg.events)
	}
	return n
}

// cellMirror adapts a cell's mirror copy to antientropy.Store.
type cellMirror struct {
	s    *System
	key  Key
	memo *copySummary
}

func (c cellMirror) Node() int { return c.s.mirrors[c.key] }

func (c cellMirror) Summary() *antientropy.Summary { return c.s.summary(c.memo, c.key, true) }

func (c cellMirror) AppendDigests(buf []uint64) []uint64 {
	return c.s.appendDigests(buf, c.key, true)
}

func (c cellMirror) Fetch(digests []uint64, buf []event.Event) []event.Event {
	sum, events := c.Summary(), c.s.mirrorStore[c.key]
	for _, d := range digests {
		if i, ok := slices.BinarySearch(sum.Keys, d); ok {
			buf = append(buf, events[sum.First[i]])
		}
	}
	return buf
}

func (c cellMirror) Insert(e event.Event) {
	c.s.putMirror(c.key, append(c.s.mirrorStore[c.key], e))
}

func (c cellMirror) Len() int { return len(c.s.mirrorStore[c.key]) }
