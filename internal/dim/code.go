// Package dim reimplements DIM — the Distributed Index for
// Multi-dimensional data (Li, Kim, Govindan & Hong, SenSys 2003) — which
// the paper uses as its baseline: the only prior DCS scheme supporting
// multi-dimensional range queries (§1, §5).
//
// DIM embeds a k-d tree in the sensor field. The field is recursively
// bisected (vertically, then horizontally, alternating) until every zone
// contains at most one node; each zone carries a binary code recording the
// split decisions. The same code, read as bisections of the k-dimensional
// value space (attribute i mod k at depth i), assigns every event a zone —
// the locality-preserving geographic hash of [11]. Range queries descend
// the code tree and visit every zone whose value region overlaps the
// query.
package dim

import (
	"fmt"
	"strings"

	"pooldcs/internal/geo"
)

// maxCodeBits bounds zone-code length. 64 bits of splits is far beyond any
// realistic deployment depth (2^64 zones).
const maxCodeBits = 64

// Code is a binary zone code of up to 64 bits: the sequence of split
// decisions from the root. Codes are comparable and usable as map keys.
type Code struct {
	bits uint64
	n    int
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

// Len returns the number of bits in the code.
func (c Code) Len() int { return c.n }

// Bit returns bit i (0 = first split).
func (c Code) Bit(i int) int {
	return int(c.bits>>uint(c.n-1-i)) & 1
}

// Append returns the code extended by one bit.
func (c Code) Append(bit int) Code {
	if c.n >= maxCodeBits {
		panic("dim: code overflow")
	}
	return Code{bits: c.bits<<1 | uint64(bit&1), n: c.n + 1}
}

// IsPrefixOf reports whether c is a prefix of other.
func (c Code) IsPrefixOf(other Code) bool {
	if c.n > other.n {
		return false
	}
	return other.bits>>uint(other.n-c.n) == c.bits
}

// String implements fmt.Stringer.
func (c Code) String() string {
	if c.n == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := 0; i < c.n; i++ {
		b.WriteByte(byte('0' + c.Bit(i)))
	}
	return b.String()
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

// EventCode returns the depth-bit code of a value vector: the zone code an
// event maps to when the tree is fully split to that depth. values must be
// normalized to [0, 1).
func EventCode(values []float64, depth int) Code {
	k := len(values)
	// Per-insert hot path: keep the bisection bounds on the stack for
	// realistic dimensionalities instead of allocating two slices.
	var loArr, hiArr [8]float64
	var lo, hi []float64
	if k <= len(loArr) {
		lo, hi = loArr[:k], hiArr[:k]
	} else {
		lo, hi = make([]float64, k), make([]float64, k)
	}
	for j := range hi {
		lo[j] = 0
		hi[j] = 1
	}
	var c Code
	for i := 0; i < depth; i++ {
		j := i % k
		mid := (lo[j] + hi[j]) / 2
		if values[j] < mid {
			c = c.Append(0)
			hi[j] = mid
		} else {
			c = c.Append(1)
			lo[j] = mid
		}
	}
	return c
}
