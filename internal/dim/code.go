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

import "strings"

// maxCodeBits bounds zone-code length. 64 bits of splits is far beyond any
// realistic deployment depth (2^64 zones).
const maxCodeBits = 64

// Code is a binary zone code of up to 64 bits: the sequence of split
// decisions from the root. Codes are comparable and usable as map keys.
type Code struct {
	bits uint64
	n    int
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
