package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pooldcs/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Std() != 0 || s.CI95() != 0 {
		t.Error("zero-value summary not neutral")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive")
	}
	if !strings.Contains(s.String(), "mean=5.00") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummaryMatchesNaiveProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, r := range raw {
			v := float64(r)
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		naiveVar := ss / float64(len(raw)-1)
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Var()-naiveVar) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	values := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{20, 1},
		{50, 3},
		{100, 5},
		{99, 5},
	}
	for _, tt := range tests {
		if got := Percentile(values, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated.
	if values[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("even loads Gini = %v, want 0", g)
	}
	// All load on one of many nodes tends toward 1.
	loads := make([]int, 100)
	loads[7] = 1000
	if g := Gini(loads); g < 0.95 {
		t.Errorf("concentrated Gini = %v, want ≈0.99", g)
	}
	if Gini(nil) != 0 || Gini([]int{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
	// Monotonicity: spreading load lowers the coefficient.
	if Gini([]int{10, 0, 0, 0}) <= Gini([]int{4, 3, 2, 1}) {
		t.Error("Gini not ordering concentration correctly")
	}
}

func TestGiniRandomBounds(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		loads := make([]int, 1+src.Intn(50))
		for i := range loads {
			loads[i] = src.Intn(100)
		}
		g := Gini(loads)
		if g < -1e-9 || g > 1 {
			t.Fatalf("Gini(%v) = %v out of [0,1]", loads, g)
		}
	}
}

// Var returns the sample variance (0 with fewer than two observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}
