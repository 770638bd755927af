// Package geo provides the planar geometry primitives used throughout the
// simulator: points, rectangles, segments, and the orientation and
// intersection predicates that GPSR's planarization and face traversal
// depend on.
//
// All coordinates are in metres in a Cartesian plane whose origin is the
// lower-left corner of the deployment field.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector p − q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{X: p.X * f, Y: p.Y * f} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q treated as
// vectors.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths (neighbour scans, greedy forwarding).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point {
	return Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2}
}

// Angle returns the angle of the vector from p to q in radians, in
// (−π, π], as given by math.Atan2.
func (p Point) Angle(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// Equal reports whether p and q are exactly equal.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Orientation classifies the turn formed by the path a→b→c.
type Orientation int

// Orientation values.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// Orient returns the orientation of the ordered triple (a, b, c).
func Orient(a, b, c Point) Orientation {
	v := b.Sub(a).Cross(c.Sub(a))
	switch {
	case v > 0:
		return CounterClockwise
	case v < 0:
		return Clockwise
	default:
		return Collinear
	}
}

// Segment is the closed line segment between A and B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// onSegment reports whether point p, known to be collinear with s, lies on s.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// Intersects reports whether segments s and t share at least one point.
// Shared endpoints count as intersections.
func (s Segment) Intersects(t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear special cases.
	switch {
	case o1 == Collinear && onSegment(s, t.A):
		return true
	case o2 == Collinear && onSegment(s, t.B):
		return true
	case o3 == Collinear && onSegment(t, s.A):
		return true
	case o4 == Collinear && onSegment(t, s.B):
		return true
	}
	return false
}

// ProperlyIntersects reports whether s and t cross at exactly one interior
// point of both segments (no shared endpoints, no collinear overlap). GPSR's
// perimeter-mode face changes use proper crossings of the (entry point →
// destination) line so that touching an endpoint does not trigger a face
// switch.
func (s Segment) ProperlyIntersects(t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)
	return o1 != o2 && o3 != o4 &&
		o1 != Collinear && o2 != Collinear && o3 != Collinear && o4 != Collinear
}

// IntersectionPoint returns the intersection point of the lines through s
// and t and true, or the zero Point and false when the lines are parallel.
// Callers should first establish that the segments intersect if a point on
// both segments is required.
func (s Segment) IntersectionPoint(t Segment) (Point, bool) {
	d1 := s.B.Sub(s.A)
	d2 := t.B.Sub(t.A)
	denom := d1.Cross(d2)
	if denom == 0 {
		return Point{}, false
	}
	u := t.A.Sub(s.A).Cross(d2) / denom
	return s.A.Add(d1.Scale(u)), true
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner. Rectangles are half-open on the top and right
// edges for containment tests ([Min.X, Max.X) × [Min.Y, Max.Y)) so that a
// grid of adjacent rectangles partitions the plane without double counting;
// geometric overlap tests treat them as closed.
type Rect struct {
	Min, Max Point
}

// RectFromCorners builds the smallest Rect containing both a and b.
func RectFromCorners(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the centre point of r.
func (r Rect) Center() Point { return r.Min.Mid(r.Max) }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r under half-open semantics.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// ContainsClosed reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Overlaps reports whether r and o share any area or boundary (closed
// semantics).
func (r Rect) Overlaps(o Rect) bool {
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// SplitVertical cuts r into a left and right half at its horizontal centre.
func (r Rect) SplitVertical() (left, right Rect) {
	mid := (r.Min.X + r.Max.X) / 2
	left = Rect{Min: r.Min, Max: Point{X: mid, Y: r.Max.Y}}
	right = Rect{Min: Point{X: mid, Y: r.Min.Y}, Max: r.Max}
	return left, right
}

// SplitHorizontal cuts r into a bottom and top half at its vertical centre.
func (r Rect) SplitHorizontal() (bottom, top Rect) {
	mid := (r.Min.Y + r.Max.Y) / 2
	bottom = Rect{Min: r.Min, Max: Point{X: r.Max.X, Y: mid}}
	top = Rect{Min: Point{X: r.Min.X, Y: mid}, Max: r.Max}
	return bottom, top
}

// Interval is a closed one-dimensional interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Iv is shorthand for constructing an Interval.
func Iv(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

// Empty reports whether the interval contains no points (Lo > Hi).
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v lies in the closed interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Length returns Hi − Lo, or 0 for empty intervals.
func (iv Interval) Length() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Intersect returns the intersection of iv and o (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, o.Lo), Hi: math.Min(iv.Hi, o.Hi)}
}

// OverlapsHalfOpen reports whether the closed interval iv intersects the
// half-open interval [lo, hi). Pool cell ranges are half-open (Equation 1 of
// the paper), while query ranges are closed, so cell relevance tests use
// this mixed predicate.
func (iv Interval) OverlapsHalfOpen(lo, hi float64) bool {
	if iv.Empty() || lo >= hi {
		return false
	}
	return iv.Lo < hi && lo <= iv.Hi
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%.3f, %.3f]", iv.Lo, iv.Hi) }
