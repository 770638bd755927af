package pool

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/geo"
)

// Pool is one of the k Pools of the scheme: an l×l block of cells anchored
// at a pivot cell, storing every event whose greatest attribute value
// occurs in dimension Dim.
type Pool struct {
	// Dim is the 1-based dimension this Pool serves (P_i stores events
	// whose d1 = i).
	Dim int
	// Pivot is the lower-left cell PC_i of the Pool in grid coordinates.
	Pivot CellID
	// Side is the Pool's side length l in cells.
	Side int
}

// String implements fmt.Stringer.
func (p Pool) String() string {
	return fmt.Sprintf("P%d[pivot %v, l=%d]", p.Dim, p.Pivot, p.Side)
}

// HalfOpen is a half-open interval [Lo, Hi) — the form of the paper's
// Equation-1 cell ranges.
type HalfOpen struct {
	Lo, Hi float64
}

// String implements fmt.Stringer.
func (h HalfOpen) String() string { return fmt.Sprintf("[%.4f, %.4f)", h.Lo, h.Hi) }

// Contains reports whether v lies in [Lo, Hi).
func (h HalfOpen) Contains(v float64) bool { return v >= h.Lo && v < h.Hi }

// RangeH returns the horizontal value range of the cell at horizontal
// offset ho (Equation 1): [HO/l, (HO+1)/l).
func (p Pool) RangeH(ho int) HalfOpen {
	l := float64(p.Side)
	return HalfOpen{Lo: float64(ho) / l, Hi: float64(ho+1) / l}
}

// RangeV returns the vertical value range of the cell at offsets (ho, vo)
// (Equation 1): [VO·(HO+1)/l², (VO+1)·(HO+1)/l²).
func (p Pool) RangeV(ho, vo int) HalfOpen {
	l2 := float64(p.Side * p.Side)
	w := float64(ho + 1)
	return HalfOpen{Lo: float64(vo) * w / l2, Hi: float64(vo+1) * w / l2}
}

// InsertOffsets returns the offsets (HO, VO) of the cell that stores an
// event whose greatest value is vd1 and second-greatest vd2 (Theorem 3.1):
// HO = ⌊V_d1·l⌋, VO = ⌊V_d2·l²/(HO+1)⌋. Both values must lie in [0, 1)
// with vd2 ≤ vd1.
func (p Pool) InsertOffsets(vd1, vd2 float64) (ho, vo int) {
	l := p.Side
	ho = int(vd1 * float64(l))
	if ho >= l { // defensive: vd1 exactly 1.0 after rounding
		ho = l - 1
	}
	vo = int(vd2 * float64(l*l) / float64(ho+1))
	if vo < 0 { // one-dimensional events have no second-greatest value
		vo = 0
	}
	if vo >= l { // vd2 == vd1 at the column's upper edge
		vo = l - 1
	}
	return ho, vo
}

// InsertCell returns the global grid cell storing an event with the given
// greatest and second-greatest values.
func (p Pool) InsertCell(vd1, vd2 float64) CellID {
	ho, vo := p.InsertOffsets(vd1, vd2)
	return p.Pivot.Add(ho, vo)
}

// Cells returns all l² cells of the Pool.
func (p Pool) Cells() []CellID {
	out := make([]CellID, p.numCells())
	for i := range out {
		out[i] = p.cellAt(i)
	}
	return out
}

// numCells returns l², the number of cells of the Pool.
func (p Pool) numCells() int { return p.Side * p.Side }

// cellAt returns the i-th cell of Cells() — horizontal offset major,
// vertical offset minor — so a walk over the Pool that breaks ties by
// that order need not build the slice.
func (p Pool) cellAt(i int) CellID { return p.Pivot.Add(i/p.Side, i%p.Side) }

// ContainsCell reports whether the global cell c belongs to the Pool.
func (p Pool) ContainsCell(c CellID) bool {
	ho, vo := c.X-p.Pivot.X, c.Y-p.Pivot.Y
	return ho >= 0 && ho < p.Side && vo >= 0 && vo < p.Side
}

// QueryRanges returns the Theorem-3.2 ranges R_H^i and R_V^i of qualifying
// events of the (already rewritten) query that can be stored in this Pool:
//
//	R_H^i = [max(L_1..L_k), U_i]
//	R_V^i = [max({L_1..L_k}∖{L_i}), min(U_i, max({U_1..U_k}∖{U_i}))]
//
// Either range may be empty, in which case the Pool holds no answers.
func (p Pool) QueryRanges(q event.Query) (rh, rv geo.Interval) {
	i := p.Dim - 1
	maxL := q.Ranges[0].L
	for _, r := range q.Ranges[1:] {
		if r.L > maxL {
			maxL = r.L
		}
	}
	rh = geo.Iv(maxL, q.Ranges[i].U)

	maxLOther, maxUOther := 0.0, 0.0
	first := true
	for j, r := range q.Ranges {
		if j == i {
			continue
		}
		if first || r.L > maxLOther {
			maxLOther = r.L
		}
		if first || r.U > maxUOther {
			maxUOther = r.U
		}
		first = false
	}
	hi := q.Ranges[i].U
	if maxUOther < hi {
		hi = maxUOther
	}
	rv = geo.Iv(maxLOther, hi)
	return rh, rv
}

// RelevantCells returns the global cells of this Pool relevant to the
// (already rewritten) query — those whose Equation-1 ranges intersect the
// Theorem-3.2 ranges (Algorithm 2).
func (p Pool) RelevantCells(q event.Query) []CellID {
	return p.AppendRelevantCells(nil, q)
}

// AppendRelevantCells appends the global cells of this Pool relevant to
// the (already rewritten) query to dst and returns the extended slice —
// the allocation-free form of RelevantCells for per-query hot paths.
func (p Pool) AppendRelevantCells(dst []CellID, q event.Query) []CellID {
	rh, rv := p.QueryRanges(q)
	if rh.Empty() || rv.Empty() {
		return dst
	}
	for ho := 0; ho < p.Side; ho++ {
		h := p.RangeH(ho)
		if !rh.OverlapsHalfOpen(h.Lo, h.Hi) {
			continue
		}
		for vo := 0; vo < p.Side; vo++ {
			v := p.RangeV(ho, vo)
			if rv.OverlapsHalfOpen(v.Lo, v.Hi) {
				dst = append(dst, p.Pivot.Add(ho, vo))
			}
		}
	}
	return dst
}
