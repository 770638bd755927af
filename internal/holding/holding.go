// Package holding is what a storage scheme's nodes hold, and the one rule
// for whether a copy of it is whole. A unit is what a scheme stores events
// under — a Pool key, a DIM zone — and its slot is a dense index the
// scheme assigns. Each unit has a primary copy, made of segments each held
// by one node, and optionally a mirror copy at a node the scheme places.
// The Store keeps the events of both, the events held per node, a memo of
// each copy's set summary, and a fingerprint of each copy and of the
// events its unit acked; the scheme keeps its unit↔slot map and its
// placement rules (Scheme).
package holding

import (
	"fmt"
	"slices"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
)

// Segment is one slab of a unit's primary copy, held by one node. Rows is
// read-only: the Store is its only writer.
type Segment struct {
	Node int
	Rows event.Rows
}

// fingerprint summarises a set of events by their Seqs: how many, and the
// sum and the xor of a splitmix64 mix of each. Two copies with equal
// fingerprints hold the same events but for a 64-bit collision; a count
// alone would not tell a copy missing one event and holding another twice
// from a whole one (DESIGN §8).
type fingerprint struct{ n, sum, xor uint64 }

func (f *fingerprint) add(seq uint64) { m := mix(seq); f.n++; f.sum += m; f.xor ^= m }
func (f *fingerprint) sub(seq uint64) { m := mix(seq); f.n--; f.sum -= m; f.xor ^= m }

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// copySummary memoises the set summary of one copy of a unit, so a session
// between two copies that agree reads six words and no event. Every write
// clears valid; CheckSummaries recomputes every valid one.
type copySummary struct {
	antientropy.Summary
	valid bool
}

// Scheme is what a Store asks the scheme whose units of type K it holds:
// a unit's slot (-1 outside the deployment) and back, whether a node is
// marked failed, and the node holding the mirror copy of the unit at a
// slot (negative: none).
type Scheme[K comparable] struct {
	Slot     func(K) int
	Unit     func(slot int) K
	Failed   func(node int) bool
	MirrorAt func(slot int) int
}

// Store holds every unit of one deployment and is the only writer of it.
// Segments keep the order they were opened in and every copy the order its
// events landed in: that fixes result order, Fetch positions and digests.
// A write copies the events it stores, and what a read hands out aliases
// rows that never move. Its tables are indexed by slot, so its walks run in
// slot order.
type Store[K comparable] struct {
	sch Scheme[K]

	// segs holds each unit's segments. A crash empties the ones at the
	// node in place, for Handover or Restore to refill.
	segs [][]Segment
	// copies holds the mirror copies.
	copies []event.Rows
	// stored counts the events each node holds in segments.
	stored []int

	// sums holds the summaries of both copies of every unit, made on first
	// use (memo), and digestBuf the scratch they are built in.
	sums      [][2]copySummary
	digestBuf []uint64

	// acked holds the fingerprint of the events each unit acked and has not
	// deleted since, and held that of what each copy of it holds, 0 the
	// primary: a copy vouches iff the two are equal.
	acked []fingerprint
	held  [][2]fingerprint
}

// New returns an empty store of units units over nodes nodes. Every unit's
// first segment comes from one array, so a scan over units that hold one
// segment each, a DIM query's, reads them in place.
func New[K comparable](units, nodes int, sch Scheme[K]) *Store[K] {
	st := &Store[K]{sch: sch, segs: make([][]Segment, units),
		copies: make([]event.Rows, units), stored: make([]int, nodes),
		acked: make([]fingerprint, units), held: make([][2]fingerprint, units)}
	first := make([]Segment, units)
	for i := range st.segs {
		st.segs[i] = first[i : i : i+1]
	}
	return st
}

// Vouches reports whether the copy a query leg was served from — the
// mirror's, or else the primary's — holds exactly the events stored under
// k and not deleted since. A copy missing one never vouches again unless a
// repair lands it.
func (st *Store[K]) Vouches(k K, mirror bool) bool {
	i, c := st.sch.Slot(k), 0
	if mirror {
		c = 1
	}
	return st.held[i][c] == st.acked[i]
}

// refresh makes slot i's copy c, 0 the primary, fingerprint its rows
// after a write that replaced them.
func (st *Store[K]) refresh(i, c int) {
	st.held[i][c] = Copy[K]{st: st, slot: i, side: c}.fingerprint()
}

// putSegments ends every write to slot i's segments, in-place edits
// included: it ends the life of the primary copy's summary.
func (st *Store[K]) putSegments(i int, segs []Segment) {
	st.segs[i] = segs
	st.invalidate(i, 0)
}

// putMirror ends every write to slot i's mirror copy.
func (st *Store[K]) putMirror(i int) { st.invalidate(i, 1) }

// invalidate ends the life of the memo of slot i's copy c, 0 the primary.
func (st *Store[K]) invalidate(i, c int) {
	if st.sums != nil {
		st.sums[i][c].valid = false
	}
}

// memo returns the memo of slot i's copy c, 0 the primary, making the
// table on first use: a scheme that never reconciles keeps none.
func (st *Store[K]) memo(i, c int) *copySummary {
	if st.sums == nil {
		st.sums = make([][2]copySummary, len(st.segs))
	}
	return &st.sums[i][c]
}

// Segments returns k's segments in the order they were opened, none for a
// unit outside the deployment: read-only, valid until k's next write.
func (st *Store[K]) Segments(k K) []Segment {
	if i := st.sch.Slot(k); i >= 0 {
		return st.segs[i]
	}
	return nil
}

// MirrorRows returns k's mirror copy, read-only, nil outside.
func (st *Store[K]) MirrorRows(k K) *event.Rows {
	if i := st.sch.Slot(k); i >= 0 {
		return &st.copies[i]
	}
	return nil
}

// MirrorCopy returns k's mirror copy in a fresh slice, its events aliasing
// the copy's rows.
func (st *Store[K]) MirrorCopy(k K) []event.Event {
	if r := st.MirrorRows(k); r != nil {
		return r.AppendTo(nil)
	}
	return nil
}

// ReplaceMirror makes copies of events k's mirror copy: a re-home landed.
func (st *Store[K]) ReplaceMirror(k K, events []event.Event) {
	i := st.sch.Slot(k)
	st.copies[i].Reset(events)
	st.refresh(i, 1)
	st.putMirror(i)
}

// last returns the index of the last of segs node holds, or -1.
func last(segs []Segment, node int) int {
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Node == node {
			return i
		}
	}
	return -1
}

// at returns k's slot, its segments and the last of them node holds,
// opening one at the end when it holds none.
func (st *Store[K]) at(k K, node int) (int, []Segment, *Segment) {
	i := st.sch.Slot(k)
	segs := st.segs[i]
	j := last(segs, node)
	if j < 0 {
		segs, j = append(segs, Segment{Node: node}), len(segs)
	}
	return i, segs, &segs[j]
}

// Append stores e under k: its unit acks it, and it lands on the last of
// k's segments node holds, or on a new one at the end.
func (st *Store[K]) Append(k K, node int, e event.Event) {
	st.acked[st.insert(k, node, e)].add(e.Seq)
}

// insert lands e on the primary copy as Append does, without the ack, and
// returns k's slot.
func (st *Store[K]) insert(k K, node int, e event.Event) int {
	i, segs, seg := st.at(k, node)
	seg.Rows.Append(e)
	st.stored[node]++
	st.held[i][0].add(e.Seq)
	st.putSegments(i, segs)
	return i
}

// AppendSegment stores e under k in a new segment at node: a delegation.
func (st *Store[K]) AppendSegment(k K, node int, e event.Event) {
	i := st.sch.Slot(k)
	st.stored[node]++
	seg := Segment{Node: node}
	seg.Rows.Append(e)
	st.acked[i].add(e.Seq)
	st.held[i][0].add(e.Seq)
	st.putSegments(i, append(st.segs[i], seg))
}

// AppendMirror lands e on k's mirror copy: a mirror write arrived.
func (st *Store[K]) AppendMirror(k K, e event.Event) {
	i := st.sch.Slot(k)
	st.copies[i].Append(e)
	st.held[i][1].add(e.Seq)
	st.putMirror(i)
}

// Emptied is a segment a crash emptied — unit Unit's Seg-th — with the rows
// it held. Rows is read-only.
type Emptied[K comparable] struct {
	Unit K
	Seg  int
	Rows event.Rows
	slot int
}

// Crash loses node's RAM: it empties every segment node holds, in place,
// and drops every mirror copy node holds, and returns the emptied segments
// in EachSegment's order.
func (st *Store[K]) Crash(node int) []Emptied[K] {
	var lost []Emptied[K]
	for i, segs := range st.segs {
		for j := range segs {
			if segs[j].Node == node {
				lost = append(lost, Emptied[K]{Unit: st.sch.Unit(i), Seg: j, Rows: segs[j].Rows, slot: i})
				st.stored[node] -= segs[j].Rows.Len()
				segs[j].Rows.Reset(nil)
				st.refresh(i, 0)
				st.putSegments(i, segs)
			}
		}
	}
	for i := range st.copies {
		if st.sch.MirrorAt(i) == node {
			st.copies[i].Reset(nil)
			st.held[i][1] = fingerprint{}
			st.putMirror(i)
		}
	}
	return lost
}

// Survivors returns the events of an emptied segment its unit's mirror
// copy still holds, in the copy's order.
func (st *Store[K]) Survivors(l Emptied[K]) []event.Event {
	lost := make(map[uint64]bool, l.Rows.Len())
	for j := 0; j < l.Rows.Len(); j++ {
		lost[l.Rows.At(j).Seq] = true
	}
	var out []event.Event
	m := &st.copies[l.slot]
	for j := 0; j < m.Len(); j++ {
		if e := m.At(j); lost[e.Seq] {
			out = append(out, e)
		}
	}
	return out
}

// Handover hands an emptied segment to its unit's new holder to with
// copies of events, what a restore shipped.
func (st *Store[K]) Handover(l Emptied[K], to int, events []event.Event) {
	segs := st.segs[l.slot]
	segs[l.Seg].Node = to
	segs[l.Seg].Rows.Reset(events)
	st.stored[to] += len(events)
	st.refresh(l.slot, 0)
	st.putSegments(l.slot, segs)
}

// Restore lands a restore chunk on node's segment of k: each event keep
// admits whose Seq the segment does not hold yet, so a replayed chunk
// changes nothing.
func (st *Store[K]) Restore(k K, node int, chunk []event.Event, keep func(event.Event) bool) {
	i, segs, seg := st.at(k, node)
	for _, e := range chunk {
		if !holds(&seg.Rows, e.Seq) && keep(e) {
			seg.Rows.Append(e)
			st.stored[node]++
			st.held[i][0].add(e.Seq)
		}
	}
	st.putSegments(i, segs)
}

func holds(r *event.Rows, seq uint64) bool {
	for j := 0; j < r.Len(); j++ {
		if r.At(j).Seq == seq {
			return true
		}
	}
	return false
}

// Prune deletes the matching events of k's j-th segment, for its unit too,
// and returns how many it deleted.
func (st *Store[K]) Prune(k K, j int, match func(event.Event) bool) int {
	i := st.sch.Slot(k)
	segs := st.segs[i]
	n := segs[j].Rows.DeleteFunc(func(e event.Event) bool {
		if !match(e) {
			return false
		}
		st.held[i][0].sub(e.Seq)
		st.acked[i].sub(e.Seq)
		return true
	})
	st.stored[segs[j].Node] -= n
	st.putSegments(i, segs)
	return n
}

// PruneMirror deletes the matching events of k's mirror copy and returns
// how many it deleted. served says the delete was served at the mirror:
// then they are deleted for the unit too, which a delete served at the
// primary has done through Prune.
func (st *Store[K]) PruneMirror(k K, match func(event.Event) bool, served bool) int {
	i := st.sch.Slot(k)
	n := st.copies[i].DeleteFunc(func(e event.Event) bool {
		if !match(e) {
			return false
		}
		st.held[i][1].sub(e.Seq)
		if served {
			st.acked[i].sub(e.Seq)
		}
		return true
	})
	st.putMirror(i)
	return n
}

// Active returns the node holding k's last segment and how many events it
// holds there, or index and 0 for a unit without one.
func (st *Store[K]) Active(k K, index int) (node, held int) {
	segs := st.Segments(k)
	if len(segs) == 0 {
		return index, 0
	}
	return segs[len(segs)-1].Node, segs[len(segs)-1].Rows.Len()
}

// AppendHeldMatches appends the events matching q of the last of k's
// segments node holds to dst — a queried holder's scan.
func (st *Store[K]) AppendHeldMatches(dst []event.Event, q event.Query, k K, node int) []event.Event {
	segs := st.Segments(k)
	if j := last(segs, node); j >= 0 {
		return segs[j].Rows.AppendMatches(dst, q)
	}
	return dst
}

// AppendMirrorMatches appends the events matching q of k's mirror copy to
// dst — a queried mirror's scan.
func (st *Store[K]) AppendMirrorMatches(dst []event.Event, q event.Query, k K) []event.Event {
	if r := st.MirrorRows(k); r != nil {
		return r.AppendMatches(dst, q)
	}
	return dst
}

// Stored returns how many events node holds in segments.
func (st *Store[K]) Stored(node int) int { return st.stored[node] }

// StorageLoad implements dcs.StorageReporter: events currently held by
// each node, mirror copies excluded.
func (st *Store[K]) StorageLoad() []int { return slices.Clone(st.stored) }

// EachSegment calls fn for every segment, units in slot order and each
// unit's segments in the order they were opened. The events alias the
// segment's rows; the slice is valid until fn returns.
func (st *Store[K]) EachSegment(fn func(k K, node int, events []event.Event)) {
	var buf []event.Event
	for i, segs := range st.segs {
		for j := range segs {
			buf = segs[j].Rows.AppendTo(buf[:0])
			fn(st.sch.Unit(i), segs[j].Node, buf)
		}
	}
}

// Copy is one copy of a unit as antientropy.Store sees it: the primary's
// segments in order, or the mirror copy, held by node.
type Copy[K comparable] struct {
	st   *Store[K]
	slot int
	node int
	// side is 1 for the mirror copy, 0 for the primary: its memo's index.
	side int
}

// Copies returns k's primary copy, whose active holder is index, and its
// mirror copy, held by mirror.
func (st *Store[K]) Copies(k K, index, mirror int) (Copy[K], Copy[K]) {
	i := st.sch.Slot(k)
	return Copy[K]{st: st, slot: i, node: index}, Copy[K]{st: st, slot: i, node: mirror, side: 1}
}

// Unit returns the copy's unit.
func (c Copy[K]) Unit() K { return c.st.sch.Unit(c.slot) }

func (c Copy[K]) Node() int { return c.node }

// Summary returns the memo, rebuilt from the copy's events when a write
// has invalidated it.
func (c Copy[K]) Summary() *antientropy.Summary {
	m := c.st.memo(c.slot, c.side)
	if !m.valid {
		c.st.digestBuf = c.AppendDigests(c.st.digestBuf[:0])
		antientropy.Summarize(&m.Summary, c.st.digestBuf)
		m.valid = true
	}
	return &m.Summary
}

// parts returns how many Rows the copy is made of: its segments, or the
// mirror copy. part(p) returns the p-th of them, in order.
func (c Copy[K]) parts() int {
	if c.side == 1 {
		return 1
	}
	return len(c.st.segs[c.slot])
}

func (c Copy[K]) part(p int) *event.Rows {
	if c.side == 1 {
		return &c.st.copies[c.slot]
	}
	return &c.st.segs[c.slot][p].Rows
}

// fingerprint returns the fingerprint of the copy's rows as they stand.
func (c Copy[K]) fingerprint() fingerprint {
	var f fingerprint
	for p := 0; p < c.parts(); p++ {
		r := c.part(p)
		for j := 0; j < r.Len(); j++ {
			f.add(r.At(j).Seq)
		}
	}
	return f
}

func (c Copy[K]) AppendDigests(buf []uint64) []uint64 {
	for p := 0; p < c.parts(); p++ {
		r := c.part(p)
		for j := 0; j < r.Len(); j++ {
			buf = append(buf, antientropy.Digest(r.At(j)))
		}
	}
	return buf
}

func (c Copy[K]) Fetch(digests []uint64, buf []event.Event) []event.Event {
	sum := c.Summary()
	for _, d := range digests {
		i, ok := slices.BinarySearch(sum.Keys, d)
		if !ok {
			continue
		}
		for p, pos := 0, int(sum.First[i]); p < c.parts(); p++ {
			r := c.part(p)
			if pos < r.Len() {
				buf = append(buf, r.At(pos))
				break
			}
			pos -= r.Len()
		}
	}
	return buf
}

// Insert lands a repaired event in the copy — a primary's in its active
// segment, bypassing any workload-sharing quota: repair restores lost
// copies, it does not open delegations, and it acks nothing.
func (c Copy[K]) Insert(e event.Event) {
	k := c.Unit()
	if c.side == 1 {
		c.st.AppendMirror(k, e)
		return
	}
	node, _ := c.st.Active(k, c.node)
	c.st.insert(k, node, e)
}

func (c Copy[K]) Len() int {
	n := 0
	for p := 0; p < c.parts(); p++ {
		n += c.part(p).Len()
	}
	return n
}

// CheckStore verifies what holds in every state and returns the first
// violation found, or nil: every slot holding a segment or a copy is the
// slot of its unit, no failed node holds a segment with events, every
// node's counter is what its segments hold, and every copy's fingerprint
// is what its rows make.
func (st *Store[K]) CheckStore() error {
	counted := make([]int, len(st.stored))
	for i, segs := range st.segs {
		k := st.sch.Unit(i)
		if (len(segs) > 0 || st.copies[i].Len() > 0) && st.sch.Slot(k) != i {
			return fmt.Errorf("holding: slot %d holds unit %v, whose slot is %d", i, k, st.sch.Slot(k))
		}
		for c := range st.held[i] {
			if f := (Copy[K]{st: st, slot: i, side: c}).fingerprint(); f != st.held[i][c] {
				return fmt.Errorf("holding: unit %v copy %d (1 the mirror): kept fingerprint %+v, its rows make %+v",
					k, c, st.held[i][c], f)
			}
		}
		for j := range segs {
			seg := &segs[j]
			if st.sch.Failed(seg.Node) && seg.Rows.Len() > 0 {
				return fmt.Errorf("holding: unit %v segment with %d events held by failed node %d",
					k, seg.Rows.Len(), seg.Node)
			}
			counted[seg.Node] += seg.Rows.Len()
		}
	}
	for node, have := range st.stored {
		if have != counted[node] {
			return fmt.Errorf("holding: node %d stored counter %d, segments hold %d", node, have, counted[node])
		}
	}
	return nil
}

// CheckSummaries recomputes every valid memo from the events it claims to
// summarise: a write that forgot to invalidate would otherwise show up as
// a silently missed repair.
func (st *Store[K]) CheckSummaries() error {
	var fresh antientropy.Summary
	for i := range st.sums {
		for _, c := range []Copy[K]{{st: st, slot: i}, {st: st, slot: i, side: 1}} {
			if m := &st.sums[i][c.side]; m.valid {
				antientropy.Summarize(&fresh, c.AppendDigests(nil))
				if !fresh.Equal(&m.Summary) {
					return fmt.Errorf("holding: stale set summary for unit %v (copy %d, 1 the mirror): memo says %+v, events say %+v",
						c.Unit(), c.side, m.Zero, fresh.Zero)
				}
			}
		}
	}
	return nil
}
