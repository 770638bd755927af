// Package stats provides the small statistical toolkit the experiment
// runners use: streaming mean/variance (Welford), order statistics, the
// Gini coefficient, and exact integer histograms (inthist.go).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of observations with O(1) memory using
// Welford's algorithm. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 with fewer than two
// observations).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the half-width of a ~95% confidence interval for the mean
// under a normal approximation (1.96·std/√n). It returns 0 with fewer
// than two observations.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f±%.2f min=%.2f max=%.2f", s.n, s.Mean(), s.CI95(), s.min, s.max)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of values using
// nearest-rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Gini returns the Gini coefficient of a non-negative load vector: 0 for
// perfectly even load, approaching 1 as load concentrates on one element.
// The experiment runners use it as the hotspot metric.
func Gini(loads []int) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, loads)
	sort.Ints(sorted)
	var cum, total float64
	for i, v := range sorted {
		total += float64(v)
		cum += float64(v) * float64(i+1)
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}
