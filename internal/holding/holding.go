// Package holding is what a storage scheme's nodes hold, and the one rule
// for whether a copy of it is whole. A unit is what a scheme stores events
// under — a Pool key, a DIM zone — and its slot is a dense index the
// scheme assigns. Each unit has a primary copy, made of segments each held
// by one node, and optionally a mirror copy at a node the scheme places.
// The Store keeps the events of both, the events held per node, and a
// fingerprint of each copy and of the events its unit acked, which is the
// one answer to whether a copy is whole and whether two copies agree; the
// scheme keeps its unit↔slot map and its placement rules (Scheme).
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

	// acked holds the fingerprint of the events each unit acked, and held
	// that of what each copy of it holds, 0 the primary (DESIGN §8): a copy
	// vouches iff the two are equal, and two copies agree iff theirs are.
	acked []event.Fingerprint
	held  [][2]event.Fingerprint

	// recs holds each unit's two Copy records, the primary's first: what
	// Copies hands out, made on its first call.
	recs [][2]Copy[K]
}

// New returns an empty store of units units over nodes nodes. Every unit's
// first segment comes from one array, so a scan over units that hold one
// segment each, a DIM query's, reads them in place.
func New[K comparable](units, nodes int, sch Scheme[K]) *Store[K] {
	st := &Store[K]{sch: sch, segs: make([][]Segment, units),
		copies: make([]event.Rows, units), stored: make([]int, nodes),
		acked: make([]event.Fingerprint, units), held: make([][2]event.Fingerprint, units)}
	first := make([]Segment, units)
	for i := range st.segs {
		st.segs[i] = first[i : i : i+1]
	}
	return st
}

// Vouches reports whether the copy a query leg was served from — the
// mirror's, or else the primary's — holds exactly the events stored under
// k. A copy missing one never vouches again unless a repair lands it.
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
	st.held[i][c] = Copy[K]{st: st, slot: i, side: c}.recount()
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
	st.acked[st.insert(k, node, e)].Add(e.Seq)
}

// insert lands e on the primary copy as Append does, without the ack, and
// returns k's slot.
func (st *Store[K]) insert(k K, node int, e event.Event) int {
	i, segs, seg := st.at(k, node)
	seg.Rows.Append(e)
	st.stored[node]++
	st.held[i][0].Add(e.Seq)
	st.segs[i] = segs
	return i
}

// AppendSegment stores e under k in a new segment at node: a delegation.
func (st *Store[K]) AppendSegment(k K, node int, e event.Event) {
	i := st.sch.Slot(k)
	st.stored[node]++
	seg := Segment{Node: node}
	seg.Rows.Append(e)
	st.acked[i].Add(e.Seq)
	st.held[i][0].Add(e.Seq)
	st.segs[i] = append(st.segs[i], seg)
}

// AppendMirror lands e on k's mirror copy: a mirror write arrived.
func (st *Store[K]) AppendMirror(k K, e event.Event) {
	i := st.sch.Slot(k)
	st.copies[i].Append(e)
	st.held[i][1].Add(e.Seq)
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
			}
		}
	}
	for i := range st.copies {
		if st.sch.MirrorAt(i) == node {
			st.copies[i].Reset(nil)
			st.held[i][1] = event.Fingerprint{}
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
			st.held[i][0].Add(e.Seq)
		}
	}
	st.segs[i] = segs
}

func holds(r *event.Rows, seq uint64) bool {
	for j := 0; j < r.Len(); j++ {
		if r.At(j).Seq == seq {
			return true
		}
	}
	return false
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

// StorageLoad implements dcs.System: events currently held by
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
	// side is 1 for the mirror copy, 0 for the primary: its index in held.
	side int
}

// Copies returns k's primary copy, whose active holder is index, and its
// mirror copy, held by mirror: k's two records, which the next call for k
// points at its nodes.
func (st *Store[K]) Copies(k K, index, mirror int) (*Copy[K], *Copy[K]) {
	if st.recs == nil {
		st.recs = make([][2]Copy[K], len(st.segs))
	}
	i := st.sch.Slot(k)
	r := &st.recs[i]
	*r = [2]Copy[K]{{st: st, slot: i, node: index}, {st: st, slot: i, node: mirror, side: 1}}
	return &r[0], &r[1]
}

// Unit returns the copy's unit.
func (c Copy[K]) Unit() K { return c.st.sch.Unit(c.slot) }

func (c Copy[K]) Node() int { return c.node }

// Fingerprint returns the fingerprint the store keeps of the copy.
func (c Copy[K]) Fingerprint() event.Fingerprint { return c.st.held[c.slot][c.side] }

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

// recount returns the fingerprint of the copy's rows as they stand.
func (c Copy[K]) recount() event.Fingerprint {
	var f event.Fingerprint
	for p := 0; p < c.parts(); p++ {
		r := c.part(p)
		for j := 0; j < r.Len(); j++ {
			f.Add(r.At(j).Seq)
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

// Fetch scans the copy once per digest asked for the first event with that
// digest; only the session of a diverged pair fetches.
func (c Copy[K]) Fetch(digests []uint64, buf []event.Event) []event.Event {
next:
	for _, d := range digests {
		for p := 0; p < c.parts(); p++ {
			r := c.part(p)
			for j := 0; j < r.Len(); j++ {
				if e := r.At(j); antientropy.Digest(e) == d {
					buf = append(buf, e)
					continue next
				}
			}
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
			if f := (Copy[K]{st: st, slot: i, side: c}).recount(); f != st.held[i][c] {
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
