package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, 5)

	if got := p.Add(q); !got.Equal(Pt(4, 7)) {
		t.Errorf("Add = %v, want (4,7)", got)
	}
	if got := q.Sub(p); !got.Equal(Pt(2, 3)) {
		t.Errorf("Sub = %v, want (2,3)", got)
	}
	if got := p.Scale(2); !got.Equal(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
	if got := p.Dot(q); got != 13 {
		t.Errorf("Dot = %v, want 13", got)
	}
	if got := p.Cross(q); got != -1 {
		t.Errorf("Cross = %v, want -1", got)
	}
	if got := p.Mid(q); !got.Equal(Pt(2, 3.5)) {
		t.Errorf("Mid = %v, want (2,3.5)", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); got != tt.want {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
		if got := tt.p.Dist2(tt.q); got != tt.want*tt.want {
			t.Errorf("Dist2(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a) && a.Dist2(b) == b.Dist2(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngle(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(0, 0), Pt(0, -1), -math.Pi / 2},
	}
	for _, tt := range tests {
		if got := tt.p.Angle(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Angle(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestOrient(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if got := Orient(a, b, Pt(2, 1)); got != CounterClockwise {
		t.Errorf("Orient above = %v, want CCW", got)
	}
	if got := Orient(a, b, Pt(2, -1)); got != Clockwise {
		t.Errorf("Orient below = %v, want CW", got)
	}
	if got := Orient(a, b, Pt(2, 0)); got != Collinear {
		t.Errorf("Orient on line = %v, want collinear", got)
	}
}

func TestOrientAntisymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		// Small integer coordinates keep the cross product exact.
		a, b, c := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)), Pt(float64(cx), float64(cy))
		return Orient(a, b, c) == -Orient(b, a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{"crossing X", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},
		{"parallel", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(0, 1), Pt(2, 1)), false},
		{"shared endpoint", Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(2, 0)), true},
		{"T junction", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(1, 2)), true},
		{"disjoint collinear", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false},
		{"overlapping collinear", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(3, 0)), true},
		{"near miss", Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 0), Pt(3, 1)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.Intersects(tt.u); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			// Intersection is symmetric.
			if got := tt.u.Intersects(tt.s); got != tt.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentProperlyIntersects(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{"crossing X", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},
		{"shared endpoint", Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(2, 0)), false},
		{"T junction", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(1, 2)), false},
		{"overlapping collinear", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(3, 0)), false},
		{"disjoint", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(5, 5), Pt(6, 6)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.ProperlyIntersects(tt.u); got != tt.want {
				t.Errorf("ProperlyIntersects = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntersectionPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(2, 2))
	u := Seg(Pt(0, 2), Pt(2, 0))
	p, ok := s.IntersectionPoint(u)
	if !ok {
		t.Fatal("expected an intersection point")
	}
	if !p.Equal(Pt(1, 1)) {
		t.Errorf("IntersectionPoint = %v, want (1,1)", p)
	}

	par := Seg(Pt(0, 1), Pt(2, 3))
	if _, ok := s.IntersectionPoint(par); ok {
		t.Error("parallel lines should not intersect")
	}
}

func TestRectBasics(t *testing.T) {
	r := RectFromCorners(Pt(4, 6), Pt(0, 2))
	if !r.Min.Equal(Pt(0, 2)) || !r.Max.Equal(Pt(4, 6)) {
		t.Fatalf("RectFromCorners normalized wrong: %v", r)
	}
	if r.Width() != 4 || r.Height() != 4 {
		t.Errorf("Width/Height = %v/%v, want 4/4", r.Width(), r.Height())
	}
	if !r.Center().Equal(Pt(2, 4)) {
		t.Errorf("Center = %v, want (2,4)", r.Center())
	}
	if r.Area() != 16 {
		t.Errorf("Area = %v, want 16", r.Area())
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	tests := []struct {
		p          Point
		half, full bool
	}{
		{Pt(0.5, 0.5), true, true},
		{Pt(0, 0), true, true},
		{Pt(1, 1), false, true}, // top-right corner excluded half-open
		{Pt(1, 0.5), false, true},
		{Pt(0.5, 1), false, true},
		{Pt(-0.1, 0.5), false, false},
		{Pt(2, 2), false, false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.half {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.half)
		}
		if got := r.ContainsClosed(tt.p); got != tt.full {
			t.Errorf("ContainsClosed(%v) = %v, want %v", tt.p, got, tt.full)
		}
	}
}

func TestRectOverlaps(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	tests := []struct {
		o    Rect
		want bool
	}{
		{Rect{Min: Pt(1, 1), Max: Pt(3, 3)}, true},
		{Rect{Min: Pt(2, 0), Max: Pt(3, 1)}, true}, // edge touch
		{Rect{Min: Pt(3, 3), Max: Pt(4, 4)}, false},
		{Rect{Min: Pt(-1, -1), Max: Pt(5, 5)}, true}, // containment
	}
	for _, tt := range tests {
		if got := r.Overlaps(tt.o); got != tt.want {
			t.Errorf("Overlaps(%v) = %v, want %v", tt.o, got, tt.want)
		}
		if got := tt.o.Overlaps(r); got != tt.want {
			t.Errorf("Overlaps(%v) (swapped) = %v, want %v", tt.o, got, tt.want)
		}
	}
}

func TestRectSplit(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 2)}

	left, right := r.SplitVertical()
	if left.Max.X != 2 || right.Min.X != 2 {
		t.Errorf("SplitVertical = %v | %v", left, right)
	}
	if left.Area()+right.Area() != r.Area() {
		t.Error("vertical split should preserve area")
	}

	bottom, top := r.SplitHorizontal()
	if bottom.Max.Y != 1 || top.Min.Y != 1 {
		t.Errorf("SplitHorizontal = %v | %v", bottom, top)
	}
	if bottom.Area()+top.Area() != r.Area() {
		t.Error("horizontal split should preserve area")
	}
}

func TestRectClampPoint(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	tests := []struct {
		p, want Point
	}{
		{Pt(0.5, 0.5), Pt(0.5, 0.5)},
		{Pt(-1, 0.5), Pt(0, 0.5)},
		{Pt(2, 2), Pt(1, 1)},
		{Pt(0.5, -3), Pt(0.5, 0)},
	}
	for _, tt := range tests {
		if got := r.ClampPoint(tt.p); !got.Equal(tt.want) {
			t.Errorf("ClampPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestClampPointIsClosestProperty(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		p := Pt(x, y)
		c := r.ClampPoint(p)
		if !r.ContainsClosed(c) {
			return false
		}
		// The clamped point must be at least as close as the corners.
		for _, q := range []Point{r.Min, r.Max, Pt(r.Min.X, r.Max.Y), Pt(r.Max.X, r.Min.Y)} {
			if p.Dist2(q) < p.Dist2(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterval(t *testing.T) {
	iv := Iv(0.2, 0.5)
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if !iv.Contains(0.2) || !iv.Contains(0.5) || !iv.Contains(0.3) {
		t.Error("closed interval should contain endpoints and interior")
	}
	if iv.Contains(0.19) || iv.Contains(0.51) {
		t.Error("interval contains points outside")
	}
	if got := iv.Length(); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("Length = %v, want 0.3", got)
	}

	empty := Iv(0.5, 0.2)
	if !empty.Empty() {
		t.Error("inverted interval should be empty")
	}
	if empty.Length() != 0 {
		t.Error("empty interval length should be 0")
	}
}

func TestIntervalIntersect(t *testing.T) {
	tests := []struct {
		a, b, want Interval
	}{
		{Iv(0, 1), Iv(0.5, 2), Iv(0.5, 1)},
		{Iv(0, 0.4), Iv(0.6, 1), Iv(0.6, 0.4)}, // empty
		{Iv(0, 1), Iv(0.2, 0.3), Iv(0.2, 0.3)},
	}
	for _, tt := range tests {
		got := tt.a.Intersect(tt.b)
		if got != tt.want {
			t.Errorf("%v ∩ %v = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestOverlapsHalfOpen(t *testing.T) {
	tests := []struct {
		iv     Interval
		lo, hi float64
		want   bool
	}{
		{Iv(0.2, 0.3), 0.2, 0.4, true},
		{Iv(0.2, 0.3), 0.3, 0.4, true},  // closed upper endpoint touches half-open lower bound
		{Iv(0.2, 0.3), 0.0, 0.2, false}, // half-open [0,0.2) excludes 0.2
		{Iv(0.2, 0.3), 0.31, 0.4, false},
		{Iv(0.5, 0.4), 0.0, 1.0, false}, // empty query interval
		{Iv(0.2, 0.3), 0.4, 0.4, false}, // empty cell range
		{Iv(0.0, 1.0), 0.999, 1.0, true},
	}
	for _, tt := range tests {
		if got := tt.iv.OverlapsHalfOpen(tt.lo, tt.hi); got != tt.want {
			t.Errorf("%v.OverlapsHalfOpen(%v,%v) = %v, want %v", tt.iv, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestIntervalIntersectCommutesProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		x, y := Iv(a, b), Iv(c, d)
		return x.Intersect(y) == y.Intersect(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ClampPoint returns the point of r closest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}
