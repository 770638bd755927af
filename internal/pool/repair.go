package pool

import (
	"pooldcs/internal/event"
	"pooldcs/internal/holding"
)

// Repair is the plan of one crash's repair: who re-elects to whom, which
// copy restores a lost key, which mirror re-homes where — decided once from
// the Directory and the Store, and carried out by System.FailNode in zero
// time and by node.Engine over repair messages in virtual time. Each of its
// three steps is taken when the executor holds the state the step reads:
//
//  1. Election, at crash time (PlanRepair; Election re-plans one cell).
//  2. Restore, once a cell's new holder is in place (RestoreLost,
//     RestoreCell): per key, an alive mirror's copy, the new holder's own
//     when it is the mirror, or none, which leaves the events the crash
//     took lost.
//  3. Re-home (Rehomes, Rehome): a mirror that died or that re-election
//     left on its cell's index node moves to the next-closest alive node.
//
// What a restore ships differs by executor, and the step says which:
// RestoreLost hands a lost segment over in place, holding the events of it
// the mirror still has; RestoreCell streams the mirror's whole copy, each
// chunk landing by Store.Restore's rule.
type Repair struct {
	Victim int
	// Lost lists the segments the crash emptied, in EachSegment order.
	Lost []holding.Emptied[Key]
	// Elections lists the cells to re-elect, in row-major order.
	Elections []Election
}

// Election is one cell's re-election: node To takes over its index role,
// or -1 when no node is alive.
type Election struct {
	Cell CellID
	To   int
}

// Transfer is one copy a restore or a re-home moves from node From to node
// To. A restore has From -1 when no copy survives, and From == To when the
// new holder is the mirror and adopts its own copy; a re-home has To -1
// when no node can take it.
type Transfer struct {
	Key      Key
	From, To int
	// Events is what the transfer ships; nil for a RestoreCell transfer,
	// which streams From's copy as it stands when the stream starts.
	Events []event.Event
}

// PlanRepair takes the election step of victim's crash, marked failed: it
// loses the victim's RAM and plans the re-election of every cell whose
// index node is marked failed, except those electing reports in flight
// (nil: none).
func (st *Store) PlanRepair(victim int, electing func(CellID) bool) *Repair {
	r := &Repair{Victim: victim, Lost: st.Crash(victim)}
	for _, c := range st.dir.Orphaned() {
		if electing == nil || !electing(c) {
			el, _ := st.dir.Election(c)
			r.Elections = append(r.Elections, el)
		}
	}
	return r
}

// Election is the election step for one cell, false while its index node
// is alive; an aborted re-election re-plans through it.
func (d *Directory) Election(c CellID) (Election, bool) {
	if !d.Failed(d.IndexNode(c)) {
		return Election{}, false
	}
	return Election{Cell: c, To: d.Elect(c, -1)}, true
}

// restore is the restore step for key, its cell's new holder to in place.
func (st *Store) restore(key Key, to int) Transfer {
	from, _ := st.dir.MirrorFor(key, -1)
	return Transfer{Key: key, From: from, To: to}
}

// RestoreLost is the restore step for one lost segment, its cell's new
// holder in place: the transfer ships the events of the segment the
// mirror's copy still holds, in the copy's order, for Handover.
func (st *Store) RestoreLost(l holding.Emptied[Key]) Transfer {
	x := st.restore(l.Unit, st.dir.IndexNode(l.Unit.Cell))
	if x.From >= 0 {
		x.Events = st.Survivors(l)
	}
	return x
}

// RestoreCell is the restore step for a re-elected cell whose new holder to
// is in place: one transfer per Pool key of the cell that has a copy to
// move, in Pool order. A key whose mirror copy is empty has nothing to
// stream unless the new holder adopts it locally.
func (st *Store) RestoreCell(c CellID, to int) []Transfer {
	var out []Transfer
	for _, p := range st.dir.pools {
		if !p.ContainsCell(c) {
			continue
		}
		x := st.restore(Key{Dim: p.Dim, Cell: c}, to)
		if x.From == to || x.From >= 0 && st.MirrorRows(x.Key).Len() > 0 {
			out = append(out, x)
		}
	}
	return out
}

// Rehomes selects the re-home step's keys: every key whose mirror died or
// is its cell's own index node, in MirrorKeys order, except those moving
// reports in flight (nil: none).
func (st *Store) Rehomes(moving func(Key) bool) []Key {
	var keys []Key
	for _, key := range st.dir.MirrorKeys() {
		m := st.dir.Mirror(key)
		if m >= 0 && (st.dir.dead[m] || m == st.dir.IndexNode(key.Cell)) && (moving == nil || !moving(key)) {
			keys = append(keys, key)
		}
	}
	return keys
}

// Rehome plans key's mirror re-home: the alive node closest to the cell's
// centre other than its index node takes the mirror role, with a copy of
// every segment of the key shipped from the index node.
func (st *Store) Rehome(key Key) Transfer {
	from := st.dir.IndexNode(key.Cell)
	var events []event.Event
	segs := st.Segments(key)
	for j := range segs {
		events = segs[j].Rows.AppendTo(events)
	}
	return Transfer{Key: key, From: from, To: st.dir.Elect(key.Cell, from), Events: events}
}
