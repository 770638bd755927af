package dim

import (
	"fmt"
	"testing"

	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// valueRegion returns the k-dimensional value region c denotes: bit i
// bisects attribute (i mod k), with 0 selecting the lower half. Regions
// are half-open on the upper side except at 1.0, mirroring the normalized
// attribute domain. This reproduces the paper's Figure 1(b) table.
func valueRegion(c Code, k int) []geo.Interval {
	region := make([]geo.Interval, k)
	for j := range region {
		region[j] = geo.Iv(0, 1)
	}
	for i := 0; i < c.n; i++ {
		j := i % k
		mid := (region[j].Lo + region[j].Hi) / 2
		if c.Bit(i) == 0 {
			region[j].Hi = mid
		} else {
			region[j].Lo = mid
		}
	}
	return region
}

func mustCode(t *testing.T, s string) Code {
	t.Helper()
	c, err := ParseCode(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseCodeRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1", "110", "1111", "010", "00"} {
		c := mustCode(t, s)
		if c.String() != s {
			t.Errorf("ParseCode(%q).String() = %q", s, c.String())
		}
		if c.Len() != len(s) {
			t.Errorf("ParseCode(%q).Len() = %d", s, c.Len())
		}
	}
	if (Code{}).String() != "ε" {
		t.Errorf("empty code String = %q", Code{}.String())
	}
	if _, err := ParseCode("10x"); err == nil {
		t.Error("invalid code accepted")
	}
}

func TestCodeBitsAndAppend(t *testing.T) {
	c := mustCode(t, "1101")
	want := []int{1, 1, 0, 1}
	for i, w := range want {
		if got := c.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
	if got := c.Append(0).String(); got != "11010" {
		t.Errorf("Append = %q", got)
	}
}

func TestIsPrefixOf(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"11", "110", true},
		{"11", "11", true},
		{"110", "11", false},
		{"10", "110", false},
		{"", "0", true},
	}
	for _, tt := range tests {
		a, b := mustCode(t, tt.a), mustCode(t, tt.b)
		if tt.a == "" {
			a = Code{}
		}
		if got := a.IsPrefixOf(b); got != tt.want {
			t.Errorf("%q.IsPrefixOf(%q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestValueRegionFigure1 reproduces the paper's Figure 1(b): the mapping
// from each zone code of the eight-sensor example to its three-dimensional
// value ranges.
func TestValueRegionFigure1(t *testing.T) {
	tests := []struct {
		code string
		want [3]geo.Interval
	}{
		{"010", [3]geo.Interval{geo.Iv(0, 0.5), geo.Iv(0.5, 1), geo.Iv(0, 0.5)}},
		{"011", [3]geo.Interval{geo.Iv(0, 0.5), geo.Iv(0.5, 1), geo.Iv(0.5, 1)}},
		{"00", [3]geo.Interval{geo.Iv(0, 0.5), geo.Iv(0, 0.5), geo.Iv(0, 1)}},
		{"110", [3]geo.Interval{geo.Iv(0.5, 1), geo.Iv(0.5, 1), geo.Iv(0, 0.5)}},
		{"1111", [3]geo.Interval{geo.Iv(0.75, 1), geo.Iv(0.5, 1), geo.Iv(0.5, 1)}},
		{"1110", [3]geo.Interval{geo.Iv(0.5, 0.75), geo.Iv(0.5, 1), geo.Iv(0.5, 1)}},
		{"100", [3]geo.Interval{geo.Iv(0.5, 1), geo.Iv(0, 0.5), geo.Iv(0, 0.5)}},
		{"101", [3]geo.Interval{geo.Iv(0.5, 1), geo.Iv(0, 0.5), geo.Iv(0.5, 1)}},
	}
	for _, tt := range tests {
		t.Run(tt.code, func(t *testing.T) {
			got := valueRegion(mustCode(t, tt.code), 3)
			for j := 0; j < 3; j++ {
				if got[j] != tt.want[j] {
					t.Errorf("attr %d region = %v, want %v", j+1, got[j], tt.want[j])
				}
			}
		})
	}
}

func TestGeoRect(t *testing.T) {
	tests := []struct {
		code string
		want geo.Rect
	}{
		{"0", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(50, 100)}},
		{"1", geo.Rect{Min: geo.Pt(50, 0), Max: geo.Pt(100, 100)}},
		{"00", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(50, 50)}},
		{"010", geo.Rect{Min: geo.Pt(0, 50), Max: geo.Pt(25, 100)}},
		{"1111", geo.Rect{Min: geo.Pt(75, 75), Max: geo.Pt(100, 100)}},
		{"1110", geo.Rect{Min: geo.Pt(75, 50), Max: geo.Pt(100, 75)}},
	}
	for _, tt := range tests {
		if got := mustCode(t, tt.code).GeoRect(100); got != tt.want {
			t.Errorf("GeoRect(%q) = %v, want %v", tt.code, got, tt.want)
		}
	}
}

func TestEventCode(t *testing.T) {
	tests := []struct {
		values []float64
		depth  int
		want   string
	}{
		{[]float64{0.7, 0.8, 0.2}, 3, "110"},
		{[]float64{0.7, 0.8, 0.2}, 4, "1100"}, // attr1 0.7 < 0.75
		{[]float64{0.8, 0.8, 0.8}, 4, "1111"},
		{[]float64{0.1, 0.6, 0.3}, 3, "010"},
		{[]float64{0.49, 0.49, 0.49}, 6, "000111"}, // second round: 0.49 ≥ 0.25 on every attr
	}
	for _, tt := range tests {
		if got := EventCode(tt.values, tt.depth).String(); got != tt.want {
			t.Errorf("EventCode(%v, %d) = %q, want %q", tt.values, tt.depth, got, tt.want)
		}
	}
}

func TestEventCodeInOwnValueRegion(t *testing.T) {
	src := rng.New(20)
	for trial := 0; trial < 300; trial++ {
		k := 1 + src.Intn(4)
		vals := make([]float64, k)
		for j := range vals {
			vals[j] = src.Float64()
		}
		depth := src.Intn(12)
		region := valueRegion(EventCode(vals, depth), k)
		for j, iv := range region {
			// Value regions are half-open above (except at 1.0).
			if vals[j] < iv.Lo || vals[j] >= iv.Hi {
				t.Fatalf("values %v depth %d: attr %d value %v outside region %v",
					vals, depth, j+1, vals[j], iv)
			}
		}
	}
}

func TestEventCodePrefixConsistency(t *testing.T) {
	// Deeper codes extend shallower codes of the same event.
	src := rng.New(21)
	for trial := 0; trial < 200; trial++ {
		vals := []float64{src.Float64(), src.Float64(), src.Float64()}
		shallow := EventCode(vals, 4)
		deep := EventCode(vals, 9)
		if !shallow.IsPrefixOf(deep) {
			t.Fatalf("EventCode depth 4 (%v) not prefix of depth 9 (%v) for %v",
				shallow, deep, vals)
		}
	}
}

// ParseCode builds a Code from a string of '0' and '1' runes, e.g. "110"
// for the paper's Figure 1 zones.
func ParseCode(s string) (Code, error) {
	var c Code
	for _, r := range s {
		switch r {
		case '0':
			c = c.Append(0)
		case '1':
			c = c.Append(1)
		default:
			return Code{}, fmt.Errorf("dim: invalid code character %q in %q", r, s)
		}
	}
	return c, nil
}

// IsPrefixOf reports whether c is a prefix of other.
func (c Code) IsPrefixOf(other Code) bool {
	if c.n > other.n {
		return false
	}
	return other.bits>>uint(other.n-c.n) == c.bits
}

// GeoRect returns the geographic rectangle a code denotes inside the given
// field: bit i bisects the x axis when i is even (0 = left) and the y axis
// when i is odd (0 = bottom), matching the zone construction.
func (c Code) GeoRect(fieldSide float64) geo.Rect {
	r := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(fieldSide, fieldSide)}
	for i := 0; i < c.n; i++ {
		if i%2 == 0 {
			left, right := r.SplitVertical()
			if c.Bit(i) == 0 {
				r = left
			} else {
				r = right
			}
		} else {
			bottom, top := r.SplitHorizontal()
			if c.Bit(i) == 0 {
				r = bottom
			} else {
				r = top
			}
		}
	}
	return r
}
