// Package field models the physical deployment of a sensor network: node
// placement, neighbour discovery, and connectivity.
//
// The paper's simulation model (§5.1) places nodes uniformly at random in a
// square field sized so that every node has on average 20 neighbours within
// its 40 m radio range. Layout implements exactly that sizing rule and
// provides the spatial queries (neighbour tables, nearest node) the routing
// and storage layers need.
package field

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// Spec describes a deployment to generate.
type Spec struct {
	// Nodes is the number of sensors to place.
	Nodes int
	// RadioRange is the nominal radio range in metres (paper: 40 m).
	RadioRange float64
	// AvgNeighbors is the target mean number of nodes within radio range
	// of each node (paper: 20). It determines the field side length.
	AvgNeighbors float64
}

// DefaultSpec returns the paper's §5.1 deployment parameters for n nodes.
func DefaultSpec(n int) Spec {
	return Spec{Nodes: n, RadioRange: 40, AvgNeighbors: 20}
}

// Side returns the field side length implied by the density rule:
// expected neighbours = N · π·r² / side², solved for side.
func (s Spec) Side() float64 {
	return math.Sqrt(float64(s.Nodes) * math.Pi * s.RadioRange * s.RadioRange / s.AvgNeighbors)
}

// Validate checks the spec for usable values.
func (s Spec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("field: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.RadioRange <= 0 {
		return fmt.Errorf("field: radio range must be positive, got %v", s.RadioRange)
	}
	if s.AvgNeighbors <= 0 {
		return fmt.Errorf("field: average neighbours must be positive, got %v", s.AvgNeighbors)
	}
	return nil
}

// Layout is a generated deployment: node positions plus derived spatial
// indices. Node IDs are indices into Positions.
type Layout struct {
	// Spec the layout was generated from.
	Spec Spec
	// Side is the field side length in metres.
	Side float64
	// Positions holds one location per node.
	Positions []geo.Point

	neighbors [][]int

	// The bucket grid, row-major and in CSR form: cell (x, y) holds the
	// nodes cellNodes[cellStart[y*gridW+x]:cellStart[y*gridW+x+1]] in
	// ascending id order, so a run of cells along a row is one contiguous
	// slice. Cells are bucketLen on a side and cover [0, Side]².
	gridW     int
	cellStart []int32
	cellNodes []int32
	bucketLen float64
}

// ErrDisconnected is returned when a connected deployment could not be
// generated within the attempt budget.
var ErrDisconnected = errors.New("field: could not generate a connected deployment")

// Generate places nodes uniformly at random per spec, retrying until the
// induced unit-disc graph is connected (at the paper's density this almost
// always succeeds on the first try). It fails with ErrDisconnected after 50
// attempts.
func Generate(spec Spec, src *rng.Source) (*Layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	side := spec.Side()
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pts := make([]geo.Point, spec.Nodes)
		for i := range pts {
			pts[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
		}
		l := &Layout{Spec: spec, Side: side, Positions: pts}
		l.index()
		if l.Connected() {
			return l, nil
		}
	}
	return nil, ErrDisconnected
}

// GenerateClustered places nodes in Gaussian clusters instead of
// uniformly: cluster centres are drawn uniformly, and each node lands
// near a random centre with the given spread (as a fraction of the field
// side), clamped into the field. Clustered deployments stress the
// paper's dense-uniform assumption — grid cells in the gaps have no
// nearby sensors. Like Generate, it retries until the deployment is
// connected.
func GenerateClustered(spec Spec, clusters int, spread float64, src *rng.Source) (*Layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if clusters < 1 {
		return nil, fmt.Errorf("field: need at least 1 cluster, got %d", clusters)
	}
	if spread <= 0 {
		return nil, fmt.Errorf("field: cluster spread must be positive, got %v", spread)
	}
	side := spec.Side()
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		centers := make([]geo.Point, clusters)
		for i := range centers {
			centers[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
		}
		pts := make([]geo.Point, spec.Nodes)
		for i := range pts {
			c := centers[src.Intn(clusters)]
			// Rejection-sample into the field: clamping would pile nodes
			// onto identical border coordinates, which breaks the
			// distinct-position assumption downstream (routing, k-d
			// splits).
			placed := false
			for draw := 0; draw < 100; draw++ {
				p := geo.Pt(src.Normal(c.X, spread*side), src.Normal(c.Y, spread*side))
				if p.X >= 0 && p.X < side && p.Y >= 0 && p.Y < side {
					pts[i] = p
					placed = true
					break
				}
			}
			if !placed {
				pts[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
			}
		}
		l := &Layout{Spec: spec, Side: side, Positions: pts}
		l.index()
		if l.Connected() {
			return l, nil
		}
	}
	return nil, ErrDisconnected
}

// FromPositions builds a Layout from explicit node positions (used by unit
// tests and the paper's small worked examples). side must enclose all
// positions.
func FromPositions(positions []geo.Point, side, radioRange float64) (*Layout, error) {
	if len(positions) < 1 {
		return nil, errors.New("field: no positions")
	}
	for i, p := range positions {
		if p.X < 0 || p.Y < 0 || p.X > side || p.Y > side {
			return nil, fmt.Errorf("field: node %d at %v outside [0,%v]²", i, p, side)
		}
	}
	l := &Layout{
		Spec: Spec{Nodes: len(positions), RadioRange: radioRange, AvgNeighbors: 0},
		Side: side,
		// Copy: callers keep ownership of their slice.
		Positions: append([]geo.Point(nil), positions...),
	}
	l.index()
	return l, nil
}

// maxGridCellsPerNode caps the bucket grid at about this many cells per
// node, so a sparse deployment — a long field with a short radio range —
// cannot allocate a grid far larger than the node set it indexes.
const maxGridCellsPerNode = 4

// index builds the bucket grid and neighbour tables. Buckets are at least
// one radio range on a side, so neighbour scans only touch the 3×3 block of
// buckets around a node.
func (l *Layout) index() {
	r := l.Spec.RadioRange
	n := len(l.Positions)
	maxW := int(math.Sqrt(float64(maxGridCellsPerNode*n))) + 1
	l.bucketLen = math.Max(r, l.Side/float64(maxW))
	l.gridW = 1
	if l.bucketLen > 0 {
		l.gridW = int(l.Side/l.bucketLen) + 1
	}

	// Counting sort of the nodes by cell; ids stay ascending within a cell.
	cells := l.gridW * l.gridW
	l.cellStart = make([]int32, cells+1)
	cellOf := make([]int32, n)
	for i, p := range l.Positions {
		c := int32(l.cellCoord(p.Y)*l.gridW + l.cellCoord(p.X))
		cellOf[i] = c
		l.cellStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		l.cellStart[c+1] += l.cellStart[c]
	}
	l.cellNodes = make([]int32, n)
	fill := append([]int32(nil), l.cellStart[:cells]...)
	for i, c := range cellOf {
		l.cellNodes[fill[c]] = int32(i)
		fill[c]++
	}

	// Adjacency is built in two passes into one flat backing array —
	// count degrees, then fill — so a layout costs a constant number of
	// allocations instead of per-node append-doubling.
	r2 := r * r
	total := 0
	for i, p := range l.Positions {
		l.eachNear(p, func(j int) {
			if j != i && p.Dist2(l.Positions[j]) <= r2 {
				total++
			}
		})
	}
	flat := make([]int, 0, total)
	l.neighbors = make([][]int, n)
	for i, p := range l.Positions {
		from := len(flat)
		l.eachNear(p, func(j int) {
			if j != i && p.Dist2(l.Positions[j]) <= r2 {
				flat = append(flat, j)
			}
		})
		nbrs := flat[from:len(flat):len(flat)]
		sort.Ints(nbrs)
		l.neighbors[i] = nbrs
	}
}

// cellCoord maps one coordinate to its grid column (or row), clamping
// values outside the field onto the border cells.
func (l *Layout) cellCoord(v float64) int {
	if l.gridW == 1 {
		return 0
	}
	return min(max(int(v/l.bucketLen), 0), l.gridW-1)
}

// eachNear calls fn for every node in the 3×3 block of cells around p.
func (l *Layout) eachNear(p geo.Point, fn func(j int)) {
	cx, cy := l.cellCoord(p.X), l.cellCoord(p.Y)
	x0, x1 := max(cx-1, 0), min(cx+1, l.gridW-1)
	for y := max(cy-1, 0); y <= min(cy+1, l.gridW-1); y++ {
		for _, j := range l.cellNodes[l.cellStart[y*l.gridW+x0]:l.cellStart[y*l.gridW+x1+1]] {
			fn(int(j))
		}
	}
}

// N returns the number of nodes.
func (l *Layout) N() int { return len(l.Positions) }

// Pos returns the position of node id.
func (l *Layout) Pos(id int) geo.Point { return l.Positions[id] }

// Bounds returns the field rectangle.
func (l *Layout) Bounds() geo.Rect {
	return geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(l.Side, l.Side)}
}

// Neighbors returns the IDs of the nodes within radio range of id, sorted
// ascending. The returned slice is owned by the layout; callers must not
// modify it.
func (l *Layout) Neighbors(id int) []int { return l.neighbors[id] }

// AvgDegree returns the mean neighbour count over all nodes.
func (l *Layout) AvgDegree() float64 {
	total := 0
	for _, n := range l.neighbors {
		total += len(n)
	}
	return float64(total) / float64(len(l.neighbors))
}

// Connected reports whether the unit-disc graph is a single component.
func (l *Layout) Connected() bool {
	n := len(l.Positions)
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range l.neighbors[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// Nearest returns the ID of the node closest to p (ties broken by lower
// ID). p may lie outside the field.
func (l *Layout) Nearest(p geo.Point) int {
	id, _ := l.NearestFunc(p, nil)
	return id
}

// NearestFunc returns the node closest to p among those ok accepts (a nil
// ok accepts every node), the lowest ID on an exact distance tie, or -1
// when ok accepts none. tied reports whether another accepted node lies at
// exactly the winning distance. ok is consulted only for nodes that would
// beat or tie the best so far, nearest cells first.
//
// The search expands square rings of cells around p's own cell (p clamped
// into the field) and stops once every cell of the next ring is farther
// than the best candidate: a node in ring k lies outside the block of
// rings below k, so it is at least as far from p as that block's border.
func (l *Layout) NearestFunc(p geo.Point, ok func(id int) bool) (id int, tied bool) {
	cx, cy := l.cellCoord(p.X), l.cellCoord(p.Y)
	w, b := l.gridW, l.bucketLen
	best, bestD2 := -1, math.Inf(1)
	for ring := 0; ring <= max(cx, w-1-cx, cy, w-1-cy); ring++ {
		if best >= 0 {
			// Distance from p to the nearest side of the block of rings
			// below this one; sides beyond the grid have no nodes behind
			// them. Not positive while the clamped p is outside the block.
			inner := math.Inf(1)
			if cx-ring >= 0 {
				inner = min(inner, p.X-float64(cx-ring+1)*b)
			}
			if cx+ring < w {
				inner = min(inner, float64(cx+ring)*b-p.X)
			}
			if cy-ring >= 0 {
				inner = min(inner, p.Y-float64(cy-ring+1)*b)
			}
			if cy+ring < w {
				inner = min(inner, float64(cy+ring)*b-p.Y)
			}
			if inner > 0 && inner*inner > bestD2 {
				break
			}
		}
		for y := max(cy-ring, 0); y <= min(cy+ring, w-1); y++ {
			// The ring's top and bottom rows are scanned in full, the rows
			// between them only at their two end cells.
			width, stride := 2*ring+1, 2*ring+1
			if y != cy-ring && y != cy+ring {
				width, stride = 1, 2*ring
			}
			for x0 := cx - ring; x0 <= cx+ring; x0 += stride {
				lo, hi := max(x0, 0), min(x0+width-1, w-1)
				if lo > hi {
					continue
				}
				for _, j32 := range l.cellNodes[l.cellStart[y*w+lo]:l.cellStart[y*w+hi+1]] {
					j := int(j32)
					d2 := p.Dist2(l.Positions[j])
					if d2 > bestD2 || (ok != nil && !ok(j)) {
						continue
					}
					if d2 < bestD2 {
						best, bestD2, tied = j, d2, false
					} else {
						best, tied = min(best, j), true
					}
				}
			}
		}
	}
	return best, tied
}
