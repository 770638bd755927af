package pool

import (
	"cmp"
	"fmt"
	"slices"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
)

// segment is one slab of a cell's storage, held by one node. The first
// segment lives at the cell's index node; workload sharing appends
// segments at delegate nodes.
type segment struct {
	node   int
	events []event.Event
}

// Store is what a deployment's Pool cells hold — each cell's segments
// with the node holding each, its mirror copy, the events held per node,
// and the set summaries of both copies — and the only writer of it. The
// synchronous System and the node actor engine each embed one beside
// their Directory and carry its moves out their own way: in zero time, or
// hop by hop over virtual time. Segments keep the order they were opened
// in and every copy the order its events landed in: that fixes result
// order, Fetch positions and digests.
type Store struct {
	dir *Directory

	// segs holds each cell's segments. A crash empties the ones at the
	// node in place: the System hands them to the new index node
	// (Handover); the actor engine, whose nodes hold at most one segment
	// of a cell, restores into the new holder's own (Restore).
	segs map[Key][]segment
	// copies holds the mirror copies, keyed like the directory's mirrors.
	copies map[Key][]event.Event
	// stored counts the events each node holds in segments.
	stored []int

	// sums holds the summaries of the copies anti-entropy has asked about,
	// digestBuf the scratch they are built in.
	sums      map[Key]*cellSummaries
	digestBuf []uint64
}

// NewStore returns an empty store over dir's deployment.
func NewStore(dir *Directory) *Store {
	return &Store{dir: dir, segs: make(map[Key][]segment), copies: make(map[Key][]event.Event),
		stored: make([]int, len(dir.dead)), sums: make(map[Key]*cellSummaries)}
}

// copySummary memoises the set summary of one copy of a cell — the digest
// column of its events and symbol 0 of its rateless stream — so a session
// between two copies that agree reads six words and no event. Every write
// clears valid; checkSummaries recomputes every valid one.
type copySummary struct {
	antientropy.Summary
	valid bool
}

// cellSummaries holds the memos of a cell's two copies.
type cellSummaries struct{ primary, mirror copySummary }

// putSegments ends every write to key's segments, in-place edits
// included: it ends the life of the primary copy's summary.
func (st *Store) putSegments(key Key, segs []segment) {
	st.segs[key] = segs
	if m := st.sums[key]; m != nil {
		m.primary.valid = false
	}
}

// ReplaceMirror makes events the cell's mirror copy.
func (st *Store) ReplaceMirror(key Key, events []event.Event) {
	st.copies[key] = events
	if m := st.sums[key]; m != nil {
		m.mirror.valid = false
	}
}

// last returns the index of the last of segs node holds, or -1.
func last(segs []segment, node int) int {
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].node == node {
			return i
		}
	}
	return -1
}

// at returns key's segments and the last of them node holds, opening one
// at the end when it holds none.
func (st *Store) at(key Key, node int) ([]segment, *segment) {
	segs := st.segs[key]
	i := last(segs, node)
	if i < 0 {
		segs, i = append(segs, segment{node: node}), len(segs)
	}
	return segs, &segs[i]
}

// Append lands e on the last of the cell's segments node holds, or on a
// new one at the end.
func (st *Store) Append(key Key, node int, e event.Event) {
	segs, seg := st.at(key, node)
	seg.events = append(seg.events, e)
	st.stored[node]++
	st.putSegments(key, segs)
}

// AppendSegment opens a new segment at node holding e: a delegation.
func (st *Store) AppendSegment(key Key, node int, e event.Event) {
	st.stored[node]++
	st.putSegments(key, append(st.segs[key], segment{node: node, events: []event.Event{e}}))
}

// AppendMirror appends e to the cell's mirror copy.
func (st *Store) AppendMirror(key Key, e event.Event) {
	st.ReplaceMirror(key, append(st.copies[key], e))
}

// Lost is a segment a crash emptied, with the events it held.
type Lost struct {
	Key    Key
	seg    int
	Events []event.Event
}

// Crash loses node's RAM: it empties every segment node holds, in place,
// drops every mirror copy node holds, and returns the emptied segments.
func (st *Store) Crash(node int) []Lost {
	var lost []Lost
	for key, segs := range st.segs {
		for i := range segs {
			if segs[i].node == node {
				lost = append(lost, Lost{Key: key, seg: i, Events: segs[i].events})
				st.stored[node] -= len(segs[i].events)
				segs[i].events = nil
				st.putSegments(key, segs)
			}
		}
	}
	for key := range st.copies {
		if st.dir.Mirror(key) == node {
			st.ReplaceMirror(key, nil)
		}
	}
	return lost
}

// Handover hands a lost segment to node to, holding restored.
func (st *Store) Handover(l Lost, to int, restored []event.Event) {
	segs := st.segs[l.Key]
	segs[l.seg] = segment{node: to, events: restored}
	st.stored[to] += len(restored)
	st.putSegments(l.Key, segs)
}

// AppendRestored appends to dst the events of a restore chunk that suit
// the deployment and whose Seq dst does not hold yet — the rule a copy
// restored chunk by chunk grows by, so a replayed chunk changes nothing.
func (st *Store) AppendRestored(dst, chunk []event.Event) []event.Event {
	for _, e := range chunk {
		if st.dir.checkEvent(e) == nil && !slices.ContainsFunc(dst, func(h event.Event) bool { return h.Seq == e.Seq }) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Restore lands a restore chunk on node's segment of the cell by the
// AppendRestored rule.
func (st *Store) Restore(key Key, node int, chunk []event.Event) {
	segs, seg := st.at(key, node)
	held := len(seg.events)
	seg.events = st.AppendRestored(seg.events, chunk)
	st.stored[node] += len(seg.events) - held
	st.putSegments(key, segs)
}

// Prune deletes the matching events of the cell's i-th segment and
// returns how many it deleted.
func (st *Store) Prune(key Key, i int, match func(event.Event) bool) int {
	segs := st.segs[key]
	held := len(segs[i].events)
	segs[i].events = slices.DeleteFunc(segs[i].events, match)
	st.stored[segs[i].node] -= held - len(segs[i].events)
	st.putSegments(key, segs)
	return held - len(segs[i].events)
}

// PruneMirror deletes the matching events of the cell's mirror copy and
// returns how many it deleted.
func (st *Store) PruneMirror(key Key, match func(event.Event) bool) int {
	held := len(st.copies[key])
	st.ReplaceMirror(key, slices.DeleteFunc(st.copies[key], match))
	return held - len(st.copies[key])
}

// Active returns the node holding the cell's last segment and how many
// events it holds there, or index and 0 for a cell without one.
func (st *Store) Active(key Key, index int) (node, held int) {
	segs := st.segs[key]
	if len(segs) == 0 {
		return index, 0
	}
	return segs[len(segs)-1].node, len(segs[len(segs)-1].events)
}

// Held returns the events of the last of the cell's segments node holds.
func (st *Store) Held(key Key, node int) []event.Event {
	segs := st.segs[key]
	if i := last(segs, node); i >= 0 {
		return segs[i].events
	}
	return nil
}

// MirrorCopy returns the cell's mirror copy.
func (st *Store) MirrorCopy(key Key) []event.Event { return st.copies[key] }

// Stored returns how many events node holds in segments.
func (st *Store) Stored(node int) int { return st.stored[node] }

// StorageLoad implements dcs.StorageReporter: events currently held by
// each node, mirror copies excluded.
func (st *Store) StorageLoad() []int { return slices.Clone(st.stored) }

// EachSegment calls fn for every segment, cells in (dimension, column,
// row) order and each cell's segments in the order they were opened.
func (st *Store) EachSegment(fn func(key Key, node int, events []event.Event)) {
	keys := make([]Key, 0, len(st.segs))
	for key := range st.segs {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.Dim, b.Dim), cmp.Compare(a.Cell.X, b.Cell.X), cmp.Compare(a.Cell.Y, b.Cell.Y))
	})
	for _, key := range keys {
		for _, seg := range st.segs[key] {
			fn(key, seg.node, seg.events)
		}
	}
}

// summariesOf returns the cell's memos, creating them (invalid) on first
// use.
func (st *Store) summariesOf(key Key) *cellSummaries {
	m := st.sums[key]
	if m == nil {
		m = &cellSummaries{}
		st.sums[key] = m
	}
	return m
}

// cellCopy is one copy of a cell as antientropy.Store sees it: the
// primary's segments in order, or the mirror copy.
type cellCopy struct {
	st     *Store
	key    Key
	memo   *copySummary
	mirror bool
}

func (c cellCopy) Node() int {
	if c.mirror {
		return c.st.dir.mirrors[c.key]
	}
	return c.st.dir.holder[c.key.Cell]
}

// Summary returns the memo, rebuilt from the copy's events when a write
// has invalidated it.
func (c cellCopy) Summary() *antientropy.Summary {
	if !c.memo.valid {
		c.st.digestBuf = c.AppendDigests(c.st.digestBuf[:0])
		antientropy.Summarize(&c.memo.Summary, c.st.digestBuf)
		c.memo.valid = true
	}
	return &c.memo.Summary
}

func (c cellCopy) AppendDigests(buf []uint64) []uint64 {
	if c.mirror {
		for _, e := range c.st.copies[c.key] {
			buf = append(buf, antientropy.Digest(e))
		}
		return buf
	}
	for _, seg := range c.st.segs[c.key] {
		for _, e := range seg.events {
			buf = append(buf, antientropy.Digest(e))
		}
	}
	return buf
}

func (c cellCopy) Fetch(digests []uint64, buf []event.Event) []event.Event {
	sum, segs := c.Summary(), c.st.segs[c.key]
	for _, d := range digests {
		i, ok := slices.BinarySearch(sum.Keys, d)
		if !ok {
			continue
		}
		pos := int(sum.First[i])
		if c.mirror {
			buf = append(buf, c.st.copies[c.key][pos])
			continue
		}
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

// Insert lands a repaired event in the copy — a primary's in its active
// segment, bypassing the workload-sharing quota: repair restores lost
// copies, it does not open delegations.
func (c cellCopy) Insert(e event.Event) {
	if c.mirror {
		c.st.AppendMirror(c.key, e)
		return
	}
	node, _ := c.st.Active(c.key, c.Node())
	c.st.Append(c.key, node, e)
}

func (c cellCopy) Len() int {
	if c.mirror {
		return len(c.st.copies[c.key])
	}
	n := 0
	for _, seg := range c.st.segs[c.key] {
		n += len(seg.events)
	}
	return n
}

// CheckStore verifies rules 2 and 3 of CheckInvariants, which hold in
// every state, and returns the first violation found, or nil.
func (st *Store) CheckStore() error {
	counted := make([]int, len(st.stored))
	for key, segs := range st.segs {
		for _, seg := range segs {
			if st.dir.dead[seg.node] && len(seg.events) > 0 {
				return fmt.Errorf("pool: cell %v segment with %d events held by dead node %d",
					key.Cell, len(seg.events), seg.node)
			}
			counted[seg.node] += len(seg.events)
		}
	}
	for node, have := range st.stored {
		if have != counted[node] {
			return fmt.Errorf("pool: node %d stored counter %d, segments hold %d", node, have, counted[node])
		}
	}
	return nil
}

// checkSummaries recomputes every valid memo from the events it claims to
// summarise: a write that forgot to invalidate would otherwise show up as
// a silently missed repair.
func (st *Store) checkSummaries() error {
	var fresh antientropy.Summary
	for key, m := range st.sums {
		for _, c := range []cellCopy{{st, key, &m.primary, false}, {st, key, &m.mirror, true}} {
			if !c.memo.valid {
				continue
			}
			antientropy.Summarize(&fresh, c.AppendDigests(nil))
			if !fresh.Equal(&c.memo.Summary) {
				return fmt.Errorf("pool: stale set summary for cell %v of P%d (mirror copy: %v): memo says %+v, events say %+v",
					key.Cell, key.Dim, c.mirror, c.memo.Zero, fresh.Zero)
			}
		}
	}
	return nil
}

// CheckCoverage verifies rule 5 of CheckInvariants: every event of a cell
// with an alive mirror is in the mirror's copy too — until an undetected
// crash loses a copy and anti-entropy has yet to repair the pair.
func (st *Store) CheckCoverage() error {
	for key, segs := range st.segs {
		if _, ok := st.dir.MirrorFor(key, -1); !ok {
			continue // mirror never elected or currently dead
		}
		inMirror := make(map[uint64]bool, len(st.copies[key]))
		for _, e := range st.copies[key] {
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
	return nil
}
