package pool

import (
	"fmt"
	"math"
	"slices"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// Key addresses one cell of one Pool: the unit events are stored,
// mirrored and repaired under.
type Key struct {
	Dim  int // 1-based Pool dimension
	Cell CellID
}

// Directory is the knowledge the paper assumes every node of a
// deployment shares ("predefined", §2–§4): the cell grid, the Pools and
// their pivots, which node indexes which cell, who is believed alive, and
// which node mirrors which cell. It is the one definition of the pure
// rules over that state — Theorem 3.1 placement with the §4.1 tie rule,
// Theorem 3.2 resolving, §3.2.3 splitter choice, mirror and index-node
// election — and the only writer of it. The synchronous System and the
// node actor engine each embed one; what they add is storage and the way
// unicasts and repair transfers are carried out.
type Directory struct {
	layout *field.Layout
	grid   *Grid
	pools  []Pool
	dims   int

	// holder holds each grid cell's index node, row-major (Y·Cols+X): the
	// node closest to the cell centre (§2), which fields all traffic for
	// the cell, or -1 for a cell outside every Pool. It is indexed by grid
	// cell, not by Key, because overlapping Pools share a cell's index
	// node. Reelect is its only writer after construction.
	holder []int32
	// dead is the membership view: nodes marked failed and not recovered.
	dead []bool

	replicate bool
	// mirrors holds each Key slot's mirror node, -1 while it has none and
	// unelected before the cell's first stored event; nil without
	// replication.
	mirrors []int32

	// memo[dim-1][sink] is the memoised splitter plus one, 0 unknown. The
	// Pool index node closest to a sink depends only on node positions,
	// which never change, and on holder, so Reelect clears it.
	memo [][]int32
}

// NewDirectory lays out a deployment for events of the given
// dimensionality: cells of side Alpha over the layout's bounds, one
// Pool of side×side cells per dimension, and the node closest to each Pool
// cell's centre as its index node. Nil pivots are drawn at random from src
// (non-overlapping where possible), as in the paper.
func NewDirectory(layout *field.Layout, dims, side int, pivots []CellID, src *rng.Source, replicate bool) (*Directory, error) {
	if dims < 1 {
		return nil, fmt.Errorf("pool: dimensionality must be ≥ 1, got %d", dims)
	}
	grid, err := NewGrid(layout.Bounds(), Alpha)
	if err != nil {
		return nil, err
	}
	if grid.Cols < side || grid.Rows < side {
		return nil, fmt.Errorf("pool: field of %d×%d cells cannot hold a Pool of side %d",
			grid.Cols, grid.Rows, side)
	}
	if pivots == nil {
		if src == nil {
			return nil, fmt.Errorf("pool: random pivot placement requires a rng source")
		}
		pivots = placePivots(grid, dims, side, src)
	}
	if len(pivots) != dims {
		return nil, fmt.Errorf("pool: %d pivots for %d dimensions", len(pivots), dims)
	}
	d := &Directory{
		layout:    layout,
		grid:      grid,
		dims:      dims,
		holder:    filled(grid.Cols*grid.Rows, -1),
		dead:      make([]bool, layout.N()),
		replicate: replicate,
		memo:      make([][]int32, dims),
	}
	if replicate {
		d.mirrors = filled(dims*side*side, unelected)
	}
	for i, pc := range pivots {
		if pc.X < 0 || pc.Y < 0 || pc.X+side > grid.Cols || pc.Y+side > grid.Rows {
			return nil, fmt.Errorf("pool: pivot %v does not fit a Pool of side %d in a %d×%d grid",
				pc, side, grid.Cols, grid.Rows)
		}
		d.pools = append(d.pools, Pool{Dim: i + 1, Pivot: pc, Side: side})
		d.memo[i] = make([]int32, layout.N())
	}
	for _, p := range d.pools {
		for i := 0; i < p.numCells(); i++ {
			c := p.cellAt(i)
			if h := &d.holder[d.gridIndex(c)]; *h < 0 {
				*h = int32(layout.Nearest(grid.Center(c)))
			}
		}
	}
	return d, nil
}

// unelected marks a mirrors slot whose cell has never elected a mirror,
// apart from -1, elected and none.
const unelected = -2

func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// gridIndex returns c's index into holder, or -1 for a cell off the grid.
func (d *Directory) gridIndex(c CellID) int {
	if !d.grid.Contains(c) {
		return -1
	}
	return c.Y*d.grid.Cols + c.X
}

// slot returns key's index into the per-Key tables — the directory's
// mirrors, the Store's segments, copies and summaries: the Pools in
// dimension order, each Pool's cells in Pool.cellAt order, that is
// (dimension, column, row) — or -1 for a key outside its Pool.
func (d *Directory) slot(key Key) int {
	if key.Dim < 1 || key.Dim > len(d.pools) {
		return -1
	}
	p := &d.pools[key.Dim-1]
	ho, vo := key.Cell.X-p.Pivot.X, key.Cell.Y-p.Pivot.Y
	if ho < 0 || ho >= p.Side || vo < 0 || vo >= p.Side {
		return -1
	}
	return (key.Dim-1)*p.numCells() + ho*p.Side + vo
}

// keyAt is the inverse of slot.
func (d *Directory) keyAt(slot int) Key {
	n := d.pools[0].numCells()
	p := d.pools[slot/n]
	return Key{Dim: p.Dim, Cell: p.cellAt(slot % n)}
}

// numSlots returns how many Keys the deployment has: k·l².
func (d *Directory) numSlots() int { return len(d.pools) * d.pools[0].numCells() }

// placePivots draws random pivot cells, preferring a placement where the
// Pools do not overlap (as in the paper's Figure 2); after 200 attempts it
// accepts overlap.
func placePivots(grid *Grid, dims, side int, src *rng.Source) []CellID {
	maxX := grid.Cols - side
	maxY := grid.Rows - side
	var pivots []CellID
	for attempt := 0; attempt < 200; attempt++ {
		pivots = make([]CellID, dims)
		ok := true
		for i := range pivots {
			pivots[i] = CellID{X: src.Intn(maxX + 1), Y: src.Intn(maxY + 1)}
			for j := 0; j < i; j++ {
				if overlaps(pivots[i], pivots[j], side) {
					ok = false
				}
			}
		}
		if ok {
			break
		}
	}
	return pivots
}

func overlaps(a, b CellID, side int) bool {
	return a.X < b.X+side && b.X < a.X+side && a.Y < b.Y+side && b.Y < a.Y+side
}

// Dims returns the event dimensionality.
func (d *Directory) Dims() int { return d.dims }

// Grid returns the cell grid.
func (d *Directory) Grid() *Grid { return d.grid }

// Pools returns the k Pools. The slice is owned by the directory.
func (d *Directory) Pools() []Pool { return d.pools }

// IndexNode returns the index node of a Pool cell, or -1 for cells outside
// every Pool.
func (d *Directory) IndexNode(c CellID) int {
	if i := d.gridIndex(c); i >= 0 {
		return int(d.holder[i])
	}
	return -1
}

// checkEvent applies the insert preconditions.
func (d *Directory) checkEvent(e event.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Dims() != d.dims {
		return fmt.Errorf("event has %d dims, deployment built for %d", e.Dims(), d.dims)
	}
	return nil
}

// candidate returns the cell Theorem 3.1 assigns e when dimension dim
// (1-based) is taken as its greatest.
func (d *Directory) candidate(e event.Event, dim int) CellID {
	return d.pools[dim-1].InsertCell(e.Values[dim-1], event.SecondGreatest(e, dim))
}

// Place validates e and returns the cell that stores it and that cell's
// index node (Algorithm 1): the Pool of the event's greatest attribute,
// the cell determined by its greatest and second-greatest values; with
// tied maxima, the candidate cell closest to the detecting sensor's own
// cell, so a single copy is stored (§4.1).
func (d *Directory) Place(origin int, e event.Event) (Key, int, error) {
	if err := d.checkEvent(e); err != nil {
		return Key{}, -1, fmt.Errorf("pool: %w", err)
	}
	originCell := d.grid.CellOf(d.layout.Pos(origin))
	best, bestDist := Key{}, math.Inf(1)
	// The tied maxima are walked in place, in event.GreatestDims order.
	max := event.Greatest(e)
	for i, v := range e.Values {
		if v != max {
			continue
		}
		cell := d.candidate(e, i+1)
		if dist := CellDist(cell, originCell); dist < bestDist {
			best, bestDist = Key{Dim: i + 1, Cell: cell}, dist
		}
	}
	return best, d.IndexNode(best.Cell), nil
}

// Fanout is one Pool's share of a resolved query: the cells that may hold
// answers, all reached through that Pool's splitter.
type Fanout struct {
	Pool  Pool
	Cells []CellID
}

// Plan is a resolved query. The zero value is ready to use, and a Plan
// handed to Resolve again reuses its memory — the rewritten ranges
// included, so what an earlier Resolve left in it is overwritten.
type Plan struct {
	// Query is the query after the §2 partial-match rewrite.
	Query event.Query
	// Fanouts lists, in Pool order, the Pools with at least one relevant
	// cell.
	Fanouts []Fanout
	cells   []CellID
}

// NumCells returns the number of relevant cells over all Pools.
func (pl *Plan) NumCells() int { return len(pl.cells) }

// Resolve validates q, rewrites it, and fills plan with the cells whose
// Equation-1 ranges intersect the Theorem-3.2 ranges of each Pool
// (Algorithm 2) — the paper's Figures 4 and 5.
func (d *Directory) Resolve(q event.Query, plan *Plan) error {
	if err := q.Validate(); err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	if q.Dims() != d.dims {
		return fmt.Errorf("pool: query has %d dims, deployment built for %d", q.Dims(), d.dims)
	}
	plan.Query.Ranges = q.AppendRewritten(plan.Query.Ranges[:0])
	plan.Fanouts, plan.cells = plan.Fanouts[:0], plan.cells[:0]
	for _, p := range d.pools {
		from := len(plan.cells)
		plan.cells = p.AppendRelevantCells(plan.cells, plan.Query)
		if to := len(plan.cells); to > from {
			plan.Fanouts = append(plan.Fanouts, Fanout{Pool: p, Cells: plan.cells[from:to:to]})
		}
	}
	return nil
}

// SplitterFor returns the Pool's splitter for a given sink: the Pool's
// index node closest to the sink (§3.2.3), ties going to the earlier cell
// in p.Cells() order, or -1 for a Pool without cells. Pools are
// predefined, so the sink computes this locally. Answers are memoised per
// (Pool, sink) until the next re-election, so a repeat call is a table
// lookup that returns what the scan over the Pool's cells would; a Pool
// the directory was not built with is scanned every time.
func (d *Directory) SplitterFor(p Pool, sink int) int {
	i := p.Dim - 1
	if i < 0 || i >= len(d.pools) || d.pools[i] != p {
		return d.AlternateSplitter(p, sink, -1)
	}
	slot := &d.memo[i][sink]
	if *slot == 0 {
		*slot = int32(d.AlternateSplitter(p, sink, -1) + 1)
	}
	return int(*slot) - 1
}

// AlternateSplitter returns the Pool's index node closest to the sink
// among nodes other than avoid — where a query retries when its splitter
// timed out — or -1 when the Pool has no other holder.
func (d *Directory) AlternateSplitter(p Pool, sink, avoid int) int {
	sinkPos := d.layout.Pos(sink)
	best, bestD2 := -1, math.Inf(1)
	for i := 0; i < p.numCells(); i++ {
		h := d.IndexNode(p.cellAt(i))
		if h < 0 || h == avoid {
			continue
		}
		if d2 := d.layout.Pos(h).Dist2(sinkPos); d2 < bestD2 {
			best, bestD2 = h, d2
		}
	}
	return best
}

// Stage names an exchange of the §3.2.3 forwarding tree that the failure
// policy (dcs.Exchange; node's querySettled) may have to aim again.
type Stage uint8

const (
	StageSplitter Stage = iota // sink → splitter
	StageCell                  // splitter → the cell's index node
	StageReply                 // an answer on its way back up the tree
)

// Retarget returns where the one retry of an exchange goes after the node
// it was first sent to timed out, and what the trace calls that retry: a
// query that lost its splitter goes to the next-closest index node of Pool
// key.Dim (-1 when the Pool has no other holder); a query that lost a
// cell's index node goes to the cell's mirror when replication keeps an
// alive one and to the index node again otherwise; a reply is re-sent as
// it is.
func (d *Directory) Retarget(st Stage, key Key, sink, lost int) (to int, label string) {
	switch st {
	case StageSplitter:
		return d.AlternateSplitter(d.pools[key.Dim-1], sink, lost), "alt-splitter"
	case StageCell:
		if m, ok := d.MirrorFor(key, lost); ok {
			return m, "mirror"
		}
		return lost, "primary"
	default:
		return lost, "reply"
	}
}

// Demote settles one cell a splitter had served when the splitter's
// aggregate reply is lost for good: a cell whose matches that reply
// carried goes unreached, a silent cell still counts as reached, as in the
// fault-free protocol where it sends nothing.
func Demote(comp *dcs.Completeness, dim int, c CellID, matches int) {
	if matches > 0 {
		comp.Unreached = append(comp.Unreached, CellLabel(dim, c))
	} else {
		comp.CellsReached++
	}
}

// Failed reports whether a node is marked failed; ids outside the
// deployment are not.
func (d *Directory) Failed(id int) bool {
	return id >= 0 && id < len(d.dead) && d.dead[id]
}

// MarkFailed marks a node failed and reports whether that changed
// anything (a node already failed stays so). Ids outside the deployment
// are an error.
func (d *Directory) MarkFailed(id int) (bool, error) {
	if id < 0 || id >= len(d.dead) {
		return false, fmt.Errorf("pool: node %d out of range", id)
	}
	changed := !d.dead[id]
	d.dead[id] = true
	return changed, nil
}

// RecoverNode brings a previously failed node back: it resumes routing,
// storing, and answering queries. Cells re-elected away from it are not
// reclaimed (their state lives at the new index nodes), and any storage
// the node held before failing is gone — a rebooted mote comes back
// empty. Recovering a node that never failed is a no-op.
func (d *Directory) RecoverNode(id int) {
	if d.Failed(id) {
		d.dead[id] = false
	}
}

// NearestAlive returns the alive node closest to p, excluding one id
// (pass -1 to exclude nobody) and taking the lowest id on an exact tie, or
// -1 when every node is dead.
func (d *Directory) NearestAlive(p geo.Point, exclude int) int {
	id, _ := d.layout.NearestFunc(p, func(id int) bool { return id != exclude && !d.dead[id] })
	return id
}

// Elect returns the alive node closest to the centre of cell c other than
// exclude, or -1 when there is none: with exclude -1 the node that takes
// over a dead index node's cell, with exclude the cell's index node the
// node that mirrors it.
func (d *Directory) Elect(c CellID, exclude int) int {
	return d.NearestAlive(d.grid.Center(c), exclude)
}

// Orphaned returns the Pool cells whose index node is marked failed, in
// row-major order.
func (d *Directory) Orphaned() []CellID {
	var out []CellID
	for i, h := range d.holder {
		if h >= 0 && d.dead[h] {
			out = append(out, CellID{X: i % d.grid.Cols, Y: i / d.grid.Cols})
		}
	}
	return out
}

// Reelect hands cell c to a new index node. Every holder change after
// construction goes through here, which is what keeps SplitterFor's memo
// honest.
func (d *Directory) Reelect(c CellID, to int) {
	d.holder[d.gridIndex(c)] = int32(to)
	for _, row := range d.memo {
		clear(row)
	}
}

// Mirror returns the cell's mirror node as last assigned, dead or alive,
// or -1 when it has none.
func (d *Directory) Mirror(key Key) int { return max(d.mirrorAt(d.slot(key)), -1) }

// mirrorAt returns slot i's mirrors entry: its cell's mirror node, -1 when
// it has none, unelected when it never elected one or i is -1.
func (d *Directory) mirrorAt(i int) int {
	if i < 0 || d.mirrors == nil {
		return unelected
	}
	return int(d.mirrors[i])
}

// MirrorFor returns the cell's mirror node when replication keeps an
// alive copy on a node other than index.
func (d *Directory) MirrorFor(key Key, index int) (int, bool) {
	m := d.mirrorAt(d.slot(key))
	if m < 0 || m == index || d.dead[m] {
		return -1, false
	}
	return m, true
}

// ElectMirror returns the node that takes the copy of an event just
// stored under key at index, electing the cell's mirror on first use
// (Elect, excluding index), or -1 while the cell has no alive mirror —
// always, without replication.
func (d *Directory) ElectMirror(key Key, index int) int {
	if !d.replicate {
		return -1
	}
	m := d.mirrorAt(d.slot(key))
	if m == unelected {
		m = d.Elect(key.Cell, index)
		d.SetMirror(key, m)
	}
	if m < 0 || d.dead[m] {
		return -1
	}
	return m
}

// SetMirror reassigns the cell's mirror; -1 records that it has none.
func (d *Directory) SetMirror(key Key, node int) {
	d.mirrors[d.slot(key)] = int32(node)
}

// MirrorKeys returns every cell that has elected a mirror, in (dimension,
// row, column) order.
func (d *Directory) MirrorKeys() []Key {
	var keys []Key
	for _, p := range d.pools {
		for vo := 0; vo < p.Side; vo++ {
			for ho := 0; ho < p.Side; ho++ {
				key := Key{Dim: p.Dim, Cell: p.Pivot.Add(ho, vo)}
				if d.mirrorAt(d.slot(key)) != unelected {
					keys = append(keys, key)
				}
			}
		}
	}
	return keys
}

// CheckDirectory verifies the directory against itself and returns the
// first violation found, or nil: every Pool cell's index node is a node of
// the deployment and every other grid cell has none, every mirror is a
// node of the deployment, -1 or unelected, and the memoised splitter of
// every (Pool, sink) is what the scan over the Pool's cells says. A call
// leaves the memo warm, so the call after the next re-election catches an
// invalidation that did not happen.
func (d *Directory) CheckDirectory() error {
	n := len(d.dead)
	for i, h := range d.holder {
		c := CellID{X: i % d.grid.Cols, Y: i / d.grid.Cols}
		inPool := slices.ContainsFunc(d.pools, func(p Pool) bool { return p.ContainsCell(c) })
		if inPool && (h < 0 || int(h) >= n) || !inPool && h != -1 {
			return fmt.Errorf("pool: cell %v (in a Pool: %v) has invalid index node %d", c, inPool, h)
		}
	}
	for i, m := range d.mirrors {
		if m != unelected && (m < -1 || int(m) >= n) {
			key := d.keyAt(i)
			return fmt.Errorf("pool: cell %v of P%d has invalid mirror %d", key.Cell, key.Dim, m)
		}
	}
	for _, p := range d.pools {
		for sink := 0; sink < n; sink++ {
			if got, want := d.SplitterFor(p, sink), d.AlternateSplitter(p, sink, -1); got != want {
				return fmt.Errorf("pool: SplitterFor(%v, %d) = %d, linear scan says %d", p, sink, got, want)
			}
		}
	}
	return nil
}
