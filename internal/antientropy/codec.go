// Package antientropy repairs diverged replicas with rateless set
// reconciliation: keyed event digests are folded into an unbounded
// stream of IBLT-style coded symbols (Yang et al., "Practical Rateless
// Set Reconciliation", SIGCOMM 2024), so a reconciliation session
// transmits on the order of the *symmetric difference* between two
// replicas — not their size. Equal replicas confirm equality with a
// single coded symbol, which is what makes continuous background repair
// affordable on a sensor network.
//
// The codec half of the package (this file) is pure computation: a
// Summary is one copy's digest set as a session reads it, an Encoder
// folds that set into coded symbols on demand, a Decoder subtracts the
// local set symbol by symbol and peel-decodes the residual into the two
// one-sided differences. The session half (session.go) runs the codec
// between replica pairs as scheduled background traffic over the routed
// unicast substrate.
package antientropy

import (
	"math"
	"slices"

	"pooldcs/internal/event"
)

// Digest maps an event to its 64-bit reconciliation key: FNV-1a over the
// little-endian bytes of the sequence number and the exact value bits.
// Replicas exchange events verbatim, so both sides always digest
// identical bytes.
func Digest(e event.Event) uint64 {
	h := fnvWord(14695981039346656037, e.Seq)
	for _, v := range e.Values {
		h = fnvWord(h, math.Float64bits(v))
	}
	return h
}

// fnvWord folds the eight little-endian bytes of w into an FNV-1a state.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * 1099511628211
		w >>= 8
	}
	return h
}

// splitmix64 is the 64-bit finalizer used for checksums and the per-key
// index PRNG; it decorrelates the digest bits from the FNV structure.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// checkOf returns the checksum guarding peel decisions: a cell is pure
// only when its key sum hashes to its checksum sum, so a cell holding
// several cancelled keys is vanishingly unlikely to masquerade as one.
func checkOf(key uint64) uint64 { return splitmix64(key ^ 0xA11CE5EED) }

// Symbol is one coded symbol of the rateless stream: the XOR of the
// keys mapped to it, the XOR of their checksums, and a signed count.
// The encoder emits counts ≥ 0; after the decoder subtracts its local
// set the count becomes (#peer-only − #local-only) within the cell.
type Symbol struct {
	Sum   uint64
	Check uint64
	Count int64
}

// SymbolBytes is the wire size of one coded symbol (sum + check +
// count) for the session cost model.
const SymbolBytes = 24

// zero reports whether the symbol carries nothing.
func (s Symbol) zero() bool { return s.Sum == 0 && s.Check == 0 && s.Count == 0 }

// Summary is what a session knows about one copy's event set once it has
// read the copy's digests. Duplicate digests are collapsed — a copy
// holding an event twice summarises as holding it once.
type Summary struct {
	// Zero is symbol 0 of the copy's rateless stream. Every key maps to
	// symbol 0, so it codes the whole set: two copies whose Zero agree hold
	// the same set, which is the decision a decoder reaches from its first
	// residual symbol.
	Zero Symbol
	// Keys are the copy's digests, ascending, each once.
	Keys []uint64
	// First[i] is the position, in the copy's AppendDigests order, of the
	// first event whose digest is Keys[i].
	First []int32
}

// Summarize fills sum from a copy's digests in AppendDigests order,
// reusing sum's memory.
func Summarize(sum *Summary, digests []uint64) {
	sum.Keys, sum.Zero = sortedSet(append(sum.Keys[:0], digests...))
	sum.First = slices.Grow(sum.First[:0], len(sum.Keys))[:len(sum.Keys)]
	for i := range sum.First {
		sum.First[i] = -1
	}
	for pos, d := range digests {
		if i, _ := slices.BinarySearch(sum.Keys, d); sum.First[i] < 0 {
			sum.First[i] = int32(pos)
		}
	}
}

// sortedSet sorts keys in place, drops duplicates and returns the set
// with symbol 0 of its stream.
func sortedSet(keys []uint64) ([]uint64, Symbol) {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	s := Symbol{Count: int64(len(keys))}
	for _, k := range keys {
		s.Sum ^= k
		s.Check ^= checkOf(k)
	}
	return keys, s
}

// mapping generates a key's strictly increasing coded-symbol index
// sequence. Every key participates in symbol 0 (so symbol 0 is the XOR
// of the whole set and equal replicas decode from it alone); later
// indices thin out so that the expected density at index i decays like
// 1/i, the rateless-IBLT distribution.
type mapping struct {
	prng uint64
	idx  uint64
}

func newMapping(key uint64) mapping { return mapping{prng: splitmix64(key)} }

// two32 is 2³² as a float, the scale of the skip transform.
const two32 = 1 << 32

// next advances to the key's next index. The skip grows with the
// current index via the inverse-square-root transform of a uniform
// draw; a zero skip is bumped to one so the sequence stays strictly
// increasing and a key can never cancel itself within one cell.
func (m *mapping) next() uint64 {
	m.prng = splitmix64(m.prng)
	r := m.prng
	skip := uint64(math.Ceil((float64(m.idx) + 1.5) * (two32/math.Sqrt(float64(r)+1) - 1)))
	if skip == 0 {
		skip = 1
	}
	m.idx += skip
	return m.idx
}

// encItem is one key waiting for its next coded symbol.
type encItem struct {
	idx uint64
	key uint64
	m   mapping
}

// before orders keys by next index (key id as deterministic tie-break).
func (a *encItem) before(b *encItem) bool {
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.key < b.key
}

// Encoder folds a digest set into the unbounded coded-symbol stream.
// Symbol 0 is the set's summary and costs nothing to produce; the keys'
// index mappings advance and the heap over them is built when symbol 1
// is first asked for, so a session that ends on its first symbol never
// pays for either.
type Encoder struct {
	keys []uint64 // ascending, each once
	zero Symbol
	h    []encItem // min-heap by (idx, key) once next > 1
	next uint64
}

// NewEncoder builds an encoder over the given digest set. Duplicate
// digests are collapsed — a replica holding two copies of an event still
// reconciles as holding the event once.
func NewEncoder(keys []uint64) *Encoder {
	e := &Encoder{}
	e.reset(sortedSet(slices.Clone(keys)))
	return e
}

// reset points the encoder at the start of another set's stream. keys
// must be ascending and duplicate-free with zero their symbol 0; the
// encoder reads them until the next reset and keeps its heap memory.
func (e *Encoder) reset(keys []uint64, zero Symbol) {
	e.keys, e.zero, e.h, e.next = keys, zero, e.h[:0], 0
}

// Next produces the next coded symbol of the stream.
func (e *Encoder) Next() Symbol {
	if e.next == 0 {
		e.next = 1
		return e.zero
	}
	if e.next == 1 {
		e.start()
	}
	var s Symbol
	for len(e.h) > 0 && e.h[0].idx == e.next {
		it := &e.h[0]
		s.Sum ^= it.key
		s.Check ^= checkOf(it.key)
		s.Count++
		it.idx = it.m.next()
		e.down(0)
	}
	e.next++
	return s
}

// start moves every key past symbol 0 and heapifies.
func (e *Encoder) start() {
	e.h = slices.Grow(e.h[:0], len(e.keys))
	for _, k := range e.keys {
		m := newMapping(k)
		e.h = append(e.h, encItem{idx: m.next(), key: k, m: m})
	}
	for i := len(e.h)/2 - 1; i >= 0; i-- {
		e.down(i)
	}
}

// down restores the heap below position i.
func (e *Encoder) down(i int) {
	h := e.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Diff is a decoded symmetric difference.
type Diff struct {
	// Remote holds the digests only the encoding (peer) side has.
	Remote []uint64
	// Local holds the digests only the decoding (local) side has.
	Local []uint64
}

// Size returns |Remote| + |Local|.
func (d Diff) Size() int { return len(d.Remote) + len(d.Local) }

// Decoder consumes a peer's coded-symbol stream, subtracting the local
// set as it goes, and peel-decodes the residual once enough symbols
// have arrived.
type Decoder struct {
	local    Encoder
	residual []Symbol
	// work and diff are Decode's scratch, kept between calls.
	work []Symbol
	diff Diff
}

// NewDecoder builds a decoder whose local set is the given digests.
func NewDecoder(localKeys []uint64) *Decoder {
	d := &Decoder{}
	d.reset(sortedSet(slices.Clone(localKeys)))
	return d
}

// reset starts another stream against a local set given as to
// Encoder.reset, keeping the decoder's memory.
func (d *Decoder) reset(keys []uint64, zero Symbol) {
	d.local.reset(keys, zero)
	d.residual = d.residual[:0]
}

// Add ingests the peer's next coded symbol. Symbols must arrive in
// stream order; the matching local symbol is subtracted immediately, so
// the residual stream codes exactly the symmetric difference.
func (d *Decoder) Add(peer Symbol) {
	l := d.local.Next()
	d.residual = append(d.residual, Symbol{
		Sum:   peer.Sum ^ l.Sum,
		Check: peer.Check ^ l.Check,
		Count: peer.Count - l.Count,
	})
}

// Received returns the number of symbols ingested so far.
func (d *Decoder) Received() int { return len(d.residual) }

// Decode attempts to peel the residual into the symmetric difference.
// It succeeds — returning the two one-sided differences, each sorted —
// exactly when every residual cell zeroes out, which guarantees the
// decoded difference is complete, not a prefix. On failure the decoder
// keeps its state; feed more symbols and try again. The returned slices
// are the decoder's own and hold until its next Decode.
func (d *Decoder) Decode() (Diff, bool) {
	d.work = append(d.work[:0], d.residual...)
	syms, m := d.work, uint64(len(d.work))
	remote, local := d.diff.Remote[:0], d.diff.Local[:0]
	for progress := true; progress; {
		progress = false
		for i := range syms {
			c := syms[i]
			if c.Count != 1 && c.Count != -1 {
				continue
			}
			check := checkOf(c.Sum)
			if c.Check != check {
				continue
			}
			key, sign := c.Sum, c.Count
			if sign > 0 {
				remote = append(remote, key)
			} else {
				local = append(local, key)
			}
			// Peel the key out of every cell it touched: symbol 0, then its
			// mapping's indices below m.
			gen := newMapping(key)
			for j := uint64(0); j < m; j = gen.next() {
				syms[j].Sum ^= key
				syms[j].Check ^= check
				syms[j].Count -= sign
			}
			progress = true
		}
	}
	d.diff = Diff{Remote: remote, Local: local}
	for i := range syms {
		if !syms[i].zero() {
			return Diff{}, false
		}
	}
	slices.Sort(remote)
	slices.Sort(local)
	return d.diff, true
}
