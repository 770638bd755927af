package pool

import (
	"fmt"
	"slices"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
)

// segment is one slab of a cell's storage, held by one node. The first
// segment lives at the cell's index node; workload sharing appends
// segments at delegate nodes.
type segment struct {
	node int
	rows event.Rows
}

// Store is what a deployment's Pool cells hold — each cell's segments
// with the node holding each, its mirror copy, the events held per node,
// and the set summaries of both copies — and the only writer of it. The
// synchronous System and the node actor engine each embed one beside
// their Directory and carry its moves out their own way: in zero time, or
// hop by hop over virtual time. Segments keep the order they were opened
// in and every copy the order its events landed in: that fixes result
// order, Fetch positions and digests. The per-cell tables are indexed by
// the directory's Key slot, so a walk over them in index order is a walk
// in (dimension, column, row) order. Every copy is an event.Rows: a write
// copies the events it stores, and what a read hands out aliases rows that
// never move.
type Store struct {
	dir *Directory

	// segs holds each cell's segments. A crash empties the ones at the
	// node in place: the System hands them to the new index node
	// (Handover); the actor engine, whose nodes hold at most one segment
	// of a cell, restores into the new holder's own (Restore).
	segs [][]segment
	// copies holds the mirror copies.
	copies []event.Rows
	// stored counts the events each node holds in segments.
	stored []int

	// sums holds the summaries of both copies of every cell, digestBuf the
	// scratch they are built in.
	sums      []cellSummaries
	digestBuf []uint64

	// dur holds how whole both copies of every cell are, and crashes
	// counts the crashes that could have made one less so.
	dur     []durability
	crashes int
}

// NewStore returns an empty store over dir's deployment.
func NewStore(dir *Directory) *Store {
	n := dir.numSlots()
	return &Store{dir: dir, segs: make([][]segment, n), copies: make([]event.Rows, n),
		stored: make([]int, len(dir.dead)), sums: make([]cellSummaries, n), dur: make([]durability, n)}
}

// Primary is how whole a key's primary copy, its segments, is. A lost
// key never turns live again: nothing stored later brings its events back.
type Primary uint8

const (
	PrimaryLive    Primary = iota // holds every event stored under the key
	PrimaryPartial                // a crash emptied it, no restore landed whole since
	PrimaryLost                   // a crash emptied it and no copy survived
)

// durability is how whole a key's two copies are. The mirror's is whole
// unless a write to it is on the air or behind is set: it missed a write
// or a crash dropped it, and no re-home or anti-entropy session has made
// it whole since. Only the Store's writers and the restore step change it.
type durability struct {
	primary Primary
	behind  bool
	inAir   int32
}

func (d *durability) whole() bool { return !d.behind && d.inAir == 0 }

// Vouches reports whether the copy a query leg was served from — the
// mirror's, or else the primary's — holds every event stored under key:
// what both drivers ask before they count a served cell as reached.
func (st *Store) Vouches(key Key, mirror bool) bool {
	d := &st.dur[st.dir.slot(key)]
	return mirror && d.whole() || !mirror && d.primary == PrimaryLive
}

// Durability returns key's primary state and whether its mirror is whole.
func (st *Store) Durability(key Key) (Primary, bool) {
	return st.dur[st.dir.slot(key)].primary, st.Vouches(key, true)
}

// settle ends a restore of slot i's primary: landed, a partial primary
// goes live when a whole mirror covers it; not landed, it is lost.
func (st *Store) settle(i int, landed bool) {
	if d := &st.dur[i]; !landed {
		d.primary = PrimaryLost
	} else if d.primary == PrimaryPartial && d.whole() && st.covers(i) {
		d.primary = PrimaryLive
	}
}

// covers reports whether slot i's mirror copy holds every event of its
// segments.
func (st *Store) covers(i int) bool {
	in := map[uint64]bool{}
	for j := 0; j < st.copies[i].Len(); j++ {
		in[st.copies[i].At(j).Seq] = true
	}
	for _, seg := range st.segs[i] {
		for j := 0; j < seg.rows.Len(); j++ {
			if !in[seg.rows.At(j).Seq] {
				return false
			}
		}
	}
	return true
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

// putSegments ends every write to the segments of the cell at slot i,
// in-place edits included: it ends the life of the primary copy's
// summary.
func (st *Store) putSegments(i int, segs []segment) {
	st.segs[i] = segs
	st.sums[i].primary.valid = false
}

// ReplaceMirror makes copies of events the cell's mirror copy: a re-home
// landed. The copy is whole when it holds every event of a live primary.
func (st *Store) ReplaceMirror(key Key, events []event.Event) {
	i := st.dir.slot(key)
	st.copies[i].Reset(events)
	st.putMirror(i)
	st.dur[i].behind = st.dur[i].primary != PrimaryLive || !st.covers(i)
}

// putMirror ends every write to the mirror copy of the cell at slot i: it
// ends the life of the mirror copy's summary.
func (st *Store) putMirror(i int) {
	st.sums[i].mirror.valid = false
}

// segsOf returns key's segments, none for a key outside its Pool.
func (st *Store) segsOf(key Key) []segment {
	if i := st.dir.slot(key); i >= 0 {
		return st.segs[i]
	}
	return nil
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

// at returns the slot of key, its segments and the last of them node
// holds, opening one at the end when it holds none.
func (st *Store) at(key Key, node int) (int, []segment, *segment) {
	i := st.dir.slot(key)
	segs := st.segs[i]
	j := last(segs, node)
	if j < 0 {
		segs, j = append(segs, segment{node: node}), len(segs)
	}
	return i, segs, &segs[j]
}

// Append lands e on the last of the cell's segments node holds, or on a
// new one at the end.
func (st *Store) Append(key Key, node int, e event.Event) {
	i, segs, seg := st.at(key, node)
	seg.rows.Append(e)
	st.stored[node]++
	st.putSegments(i, segs)
}

// AppendSegment opens a new segment at node holding e: a delegation.
func (st *Store) AppendSegment(key Key, node int, e event.Event) {
	i := st.dir.slot(key)
	st.stored[node]++
	seg := segment{node: node}
	seg.rows.Append(e)
	st.putSegments(i, append(st.segs[i], seg))
}

// AppendMirror appends e to the cell's mirror copy.
func (st *Store) AppendMirror(key Key, e event.Event) {
	i := st.dir.slot(key)
	st.copies[i].Append(e)
	st.putMirror(i)
}

// MirrorSent puts a write to the cell's mirror on the air; MirrorLanded
// settles it: landed, e joins the copy, lost, the mirror is behind.
func (st *Store) MirrorSent(key Key) { st.dur[st.dir.slot(key)].inAir++ }

func (st *Store) MirrorLanded(key Key, e event.Event, landed bool) {
	d := &st.dur[st.dir.slot(key)]
	d.inAir--
	d.behind = d.behind || !landed
	if landed {
		st.AppendMirror(key, e)
	}
}

// Lost is a segment a crash emptied, with the rows it held. Rows is
// read-only.
type Lost struct {
	Key  Key
	slot int
	seg  int
	Rows event.Rows
}

// Crash loses node's RAM: it empties every segment node holds, in place,
// leaving a primary that held events partial, drops every mirror copy node
// holds, leaving it behind, and returns the emptied segments in
// EachSegment's order.
func (st *Store) Crash(node int) []Lost {
	st.crashes++
	var lost []Lost
	for i, segs := range st.segs {
		for j := range segs {
			if segs[j].node == node {
				lost = append(lost, Lost{Key: st.dir.keyAt(i), slot: i, seg: j, Rows: segs[j].rows})
				if segs[j].rows.Len() > 0 && st.dur[i].primary == PrimaryLive {
					st.dur[i].primary = PrimaryPartial
				}
				st.stored[node] -= segs[j].rows.Len()
				segs[j].rows.Reset(nil)
				st.putSegments(i, segs)
			}
		}
	}
	for i, m := range st.dir.mirrors {
		if int(m) == node {
			st.copies[i].Reset(nil)
			st.putMirror(i)
			st.dur[i].behind = true
		}
	}
	return lost
}

// Handover hands a lost segment to its cell's new holder, holding copies
// of what the restore x shipped: nothing (From -1) loses what it held.
func (st *Store) Handover(l Lost, x Transfer) {
	segs := st.segs[l.slot]
	segs[l.seg].node = x.To
	segs[l.seg].rows.Reset(x.Events)
	st.stored[x.To] += len(x.Events)
	st.putSegments(l.slot, segs)
	st.settle(l.slot, x.From >= 0 || l.Rows.Len() == 0)
}

// Restore lands a restore chunk on node's segment of the cell: each event
// that suits the deployment and whose Seq the segment does not hold yet,
// so a replayed chunk changes nothing. The last chunk settles the restore.
func (st *Store) Restore(key Key, node int, chunk []event.Event, last bool) {
	i, segs, seg := st.at(key, node)
	for _, e := range chunk {
		if !holds(&seg.rows, e.Seq) && st.dir.checkEvent(e) == nil {
			seg.rows.Append(e)
			st.stored[node]++
		}
	}
	st.putSegments(i, segs)
	if last {
		st.settle(i, true)
	}
}

func holds(r *event.Rows, seq uint64) bool {
	for j := 0; j < r.Len(); j++ {
		if r.At(j).Seq == seq {
			return true
		}
	}
	return false
}

// Prune deletes the matching events of the cell's j-th segment and
// returns how many it deleted.
func (st *Store) Prune(key Key, j int, match func(event.Event) bool) int {
	i := st.dir.slot(key)
	segs := st.segs[i]
	n := segs[j].rows.DeleteFunc(match)
	st.stored[segs[j].node] -= n
	st.putSegments(i, segs)
	return n
}

// PruneMirror deletes the matching events of the cell's mirror copy and
// returns how many it deleted.
func (st *Store) PruneMirror(key Key, match func(event.Event) bool) int {
	i := st.dir.slot(key)
	n := st.copies[i].DeleteFunc(match)
	st.putMirror(i)
	return n
}

// Active returns the node holding the cell's last segment and how many
// events it holds there, or index and 0 for a cell without one.
func (st *Store) Active(key Key, index int) (node, held int) {
	segs := st.segsOf(key)
	if len(segs) == 0 {
		return index, 0
	}
	return segs[len(segs)-1].node, segs[len(segs)-1].rows.Len()
}

// mirrorCopy returns the cell's mirror copy, or nil for a key outside its
// Pool.
func (st *Store) mirrorCopy(key Key) *event.Rows {
	if i := st.dir.slot(key); i >= 0 {
		return &st.copies[i]
	}
	return nil
}

// MirrorCopy returns the cell's mirror copy in a fresh slice, its events
// aliasing the copy's rows.
func (st *Store) MirrorCopy(key Key) []event.Event {
	if r := st.mirrorCopy(key); r != nil {
		return r.AppendTo(nil)
	}
	return nil
}

// AppendHeldMatches appends the events matching q of the last of the
// cell's segments node holds to dst — a queried index node's scan.
func (st *Store) AppendHeldMatches(dst []event.Event, q event.Query, key Key, node int) []event.Event {
	segs := st.segsOf(key)
	if i := last(segs, node); i >= 0 {
		return segs[i].rows.AppendMatches(dst, q)
	}
	return dst
}

// AppendMirrorMatches appends the events matching q of the cell's mirror
// copy to dst — a queried mirror's scan.
func (st *Store) AppendMirrorMatches(dst []event.Event, q event.Query, key Key) []event.Event {
	if r := st.mirrorCopy(key); r != nil {
		return r.AppendMatches(dst, q)
	}
	return dst
}

// Stored returns how many events node holds in segments.
func (st *Store) Stored(node int) int { return st.stored[node] }

// StorageLoad implements dcs.StorageReporter: events currently held by
// each node, mirror copies excluded.
func (st *Store) StorageLoad() []int { return slices.Clone(st.stored) }

// EachSegment calls fn for every segment, cells in (dimension, column,
// row) order and each cell's segments in the order they were opened. The
// events alias the segment's rows; the slice is valid until fn returns.
func (st *Store) EachSegment(fn func(key Key, node int, events []event.Event)) {
	var buf []event.Event
	for i, segs := range st.segs {
		for j := range segs {
			buf = segs[j].rows.AppendTo(buf[:0])
			fn(st.dir.keyAt(i), segs[j].node, buf)
		}
	}
}

// cellCopy is one copy of a cell as antientropy.Store sees it: the
// primary's segments in order, or the mirror copy.
type cellCopy struct {
	st     *Store
	key    Key
	slot   int
	memo   *copySummary
	mirror bool
}

// copiesOf returns the primary and mirror copies of the cell at slot i.
func (st *Store) copiesOf(i int) (primary, mirror cellCopy) {
	key, m := st.dir.keyAt(i), &st.sums[i]
	return cellCopy{st: st, key: key, slot: i, memo: &m.primary},
		cellCopy{st: st, key: key, slot: i, memo: &m.mirror, mirror: true}
}

func (c cellCopy) Node() int {
	if c.mirror {
		return int(c.st.dir.mirrors[c.slot])
	}
	return c.st.dir.IndexNode(c.key.Cell)
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

// parts returns how many Rows the copy is made of: its segments, or the
// mirror copy. part(p) returns the p-th of them, in order.
func (c cellCopy) parts() int {
	if c.mirror {
		return 1
	}
	return len(c.st.segs[c.slot])
}

func (c cellCopy) part(p int) *event.Rows {
	if c.mirror {
		return &c.st.copies[c.slot]
	}
	return &c.st.segs[c.slot][p].rows
}

func (c cellCopy) AppendDigests(buf []uint64) []uint64 {
	for p := 0; p < c.parts(); p++ {
		r := c.part(p)
		for j := 0; j < r.Len(); j++ {
			buf = append(buf, antientropy.Digest(r.At(j)))
		}
	}
	return buf
}

func (c cellCopy) Fetch(digests []uint64, buf []event.Event) []event.Event {
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
	n := 0
	for p := 0; p < c.parts(); p++ {
		n += c.part(p).Len()
	}
	return n
}

// Synced implements antientropy.Syncer on the mirror copy: equal to a
// live primary, it is whole.
func (c cellCopy) Synced() {
	if d := &c.st.dur[c.slot]; d.primary == PrimaryLive {
		d.behind = false
	}
}

// CheckStore verifies rules 2, 3 and 5 of CheckInvariants, which hold in
// every state, that every slot holding a segment or a copy is the slot of
// a Key inside its Pool, and that only a crash leaves a primary partial or
// lost, and returns the first violation found, or nil.
func (st *Store) CheckStore() error {
	counted := make([]int, len(st.stored))
	for i, segs := range st.segs {
		key := st.dir.keyAt(i)
		if (len(segs) > 0 || st.copies[i].Len() > 0) && st.dir.slot(key) != i {
			return fmt.Errorf("pool: slot %d holds cell %v of P%d, whose slot is %d",
				i, key.Cell, key.Dim, st.dir.slot(key))
		}
		d := &st.dur[i]
		if d.primary != PrimaryLive && st.crashes == 0 {
			return fmt.Errorf("pool: cell %v of P%d is %d with no crash behind it", key.Cell, key.Dim, d.primary)
		}
		if _, ok := st.dir.MirrorFor(key, -1); ok && d.primary == PrimaryLive && d.whole() && !st.covers(i) {
			return fmt.Errorf("pool: cell %v of P%d: its whole mirror misses an event of its live primary", key.Cell, key.Dim)
		}
		for j := range segs {
			seg := &segs[j]
			if st.dir.dead[seg.node] && seg.rows.Len() > 0 {
				return fmt.Errorf("pool: cell %v segment with %d events held by dead node %d",
					key.Cell, seg.rows.Len(), seg.node)
			}
			counted[seg.node] += seg.rows.Len()
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
	for i := range st.sums {
		primary, mirror := st.copiesOf(i)
		for _, c := range []cellCopy{primary, mirror} {
			if !c.memo.valid {
				continue
			}
			antientropy.Summarize(&fresh, c.AppendDigests(nil))
			if !fresh.Equal(&c.memo.Summary) {
				return fmt.Errorf("pool: stale set summary for cell %v of P%d (mirror copy: %v): memo says %+v, events say %+v",
					c.key.Cell, c.key.Dim, c.mirror, c.memo.Zero, fresh.Zero)
			}
		}
	}
	return nil
}
