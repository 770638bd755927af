package antientropy

// Reference implementations (ROADMAP item 7(e): old code kept as the
// specification lives in ref_test.go, every name prefixed ref). This is
// the package as it stood before the summaries: every session re-hashes
// both copies through hash/fnv, sorts with sort.Slice, runs the encoder
// on container/heap and resolves one digest per store scan. The
// differential tests hold the rewritten sessions and codec to it.

import (
	"container/heap"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
)

func refDigest(e event.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], e.Seq)
	_, _ = h.Write(buf[:])
	for _, v := range e.Values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// refMapping is mapping with the skip transform as first written.
type refMapping struct {
	prng uint64
	idx  uint64
}

func refNewMapping(key uint64) refMapping { return refMapping{prng: splitmix64(key)} }

func (m *refMapping) next() uint64 {
	m.prng = splitmix64(m.prng)
	r := m.prng
	skip := uint64(math.Ceil((float64(m.idx) + 1.5) * (math.Exp2(32)/math.Sqrt(float64(r)+1) - 1)))
	if skip == 0 {
		skip = 1
	}
	m.idx += skip
	return m.idx
}

// indicesBelow returns the key's coded-symbol indices < m, for peeling
// a decoded key out of every cell it touched.
func indicesBelow(key uint64, m uint64) []uint64 {
	if m == 0 {
		return nil
	}
	gen := refNewMapping(key)
	out := []uint64{0}
	for {
		i := gen.next()
		if i >= m {
			return out
		}
		out = append(out, i)
	}
}

type refEncItem struct {
	idx uint64
	key uint64
	m   refMapping
}

type refEncHeap []refEncItem

func (h refEncHeap) Len() int { return len(h) }
func (h refEncHeap) Less(i, j int) bool {
	if h[i].idx != h[j].idx {
		return h[i].idx < h[j].idx
	}
	return h[i].key < h[j].key
}
func (h refEncHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEncHeap) Push(x any)   { *h = append(*h, x.(refEncItem)) }
func (h *refEncHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type refEncoder struct {
	h    refEncHeap
	next uint64
}

func refNewEncoder(keys []uint64) *refEncoder {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	e := &refEncoder{h: make(refEncHeap, 0, len(sorted))}
	var prev uint64
	for i, k := range sorted {
		if i > 0 && k == prev {
			continue
		}
		prev = k
		e.h = append(e.h, refEncItem{idx: 0, key: k, m: refNewMapping(k)})
	}
	heap.Init(&e.h)
	return e
}

func (e *refEncoder) Next() Symbol {
	var s Symbol
	for len(e.h) > 0 && e.h[0].idx == e.next {
		it := &e.h[0]
		s.Sum ^= it.key
		s.Check ^= checkOf(it.key)
		s.Count++
		it.idx = it.m.next()
		heap.Fix(&e.h, 0)
	}
	e.next++
	return s
}

type refDecoder struct {
	local    *refEncoder
	residual []Symbol
}

func refNewDecoder(localKeys []uint64) *refDecoder {
	return &refDecoder{local: refNewEncoder(localKeys)}
}

func (d *refDecoder) Add(peer Symbol) {
	l := d.local.Next()
	d.residual = append(d.residual, Symbol{
		Sum:   peer.Sum ^ l.Sum,
		Check: peer.Check ^ l.Check,
		Count: peer.Count - l.Count,
	})
}

func (d *refDecoder) Received() int { return len(d.residual) }

func (d *refDecoder) Decode() (Diff, bool) {
	syms := append([]Symbol(nil), d.residual...)
	m := uint64(len(syms))
	var diff Diff
	for progress := true; progress; {
		progress = false
		for i := range syms {
			c := syms[i]
			if c.Count != 1 && c.Count != -1 {
				continue
			}
			if c.Check != checkOf(c.Sum) {
				continue
			}
			key, sign := c.Sum, c.Count
			if sign > 0 {
				diff.Remote = append(diff.Remote, key)
			} else {
				diff.Local = append(diff.Local, key)
			}
			for _, j := range indicesBelow(key, m) {
				syms[j].Sum ^= key
				syms[j].Check ^= checkOf(key)
				syms[j].Count -= sign
			}
			progress = true
		}
	}
	for i := range syms {
		if !syms[i].zero() {
			return Diff{}, false
		}
	}
	sort.Slice(diff.Remote, func(i, j int) bool { return diff.Remote[i] < diff.Remote[j] })
	sort.Slice(diff.Local, func(i, j int) bool { return diff.Local[i] < diff.Local[j] })
	return diff, true
}

// refStore is Store as the reference sessions knew it: digests computed
// per call, one event fetched per store scan.
type refStore struct{ m *memStore }

func (s refStore) Node() int { return s.m.node }

func (s refStore) AppendDigests(buf []uint64) []uint64 {
	for _, e := range s.m.evs {
		buf = append(buf, refDigest(e))
	}
	return buf
}

func (s refStore) Fetch(d uint64) (event.Event, bool) {
	for _, e := range s.m.evs {
		if refDigest(e) == d {
			return e, true
		}
	}
	return event.Event{}, false
}

func (s refStore) Insert(e event.Event) { s.m.evs = append(s.m.evs, e) }

type refPair struct{ Primary, Replica refStore }

// refSessions is the session half of the old Reconciler: its unicast,
// its counters and its scratch.
type refSessions struct {
	net    *network.Network
	router *gpsr.Router

	pathBuf  []int
	bufA     []uint64
	bufB     []uint64
	eventBuf []event.Event

	fallbacks uint64
	symbols   uint64
	bytes     uint64
}

func (r *refSessions) unicast(from, to int, payload int) error {
	_, err := dcs.UnicastOpts(r.net, r.router, from, to, network.KindControl, payload, dcs.TxOptions{PathBuf: &r.pathBuf})
	if err == nil {
		r.bytes += uint64(payload)
	}
	return err
}

func (r *refSessions) ratelessSession(p refPair) (int, error) {
	r.bufA = p.Primary.AppendDigests(r.bufA[:0])
	r.bufB = p.Replica.AppendDigests(r.bufB[:0])
	enc := refNewEncoder(r.bufA)
	dec := refNewDecoder(r.bufB)
	batch := firstBatch
	var diff Diff
	for {
		n := batch
		if rem := maxSymbols - dec.Received(); n > rem {
			n = rem
		}
		for i := 0; i < n; i++ {
			dec.Add(enc.Next())
		}
		if err := r.unicast(p.Primary.Node(), p.Replica.Node(), frameBytes(n)); err != nil {
			return 0, err
		}
		r.symbols += uint64(n)
		if d, ok := dec.Decode(); ok {
			diff = d
			break
		}
		if dec.Received() >= maxSymbols {
			r.fallbacks++
			return r.snapshotSession(p)
		}
		if batch < maxBatch {
			batch *= 2
			if batch > maxBatch {
				batch = maxBatch
			}
		}
	}
	return r.transfer(p, diff)
}

func (r *refSessions) transfer(p refPair, diff Diff) (int, error) {
	moved := 0
	if len(diff.Remote) > 0 {
		if err := r.unicast(p.Replica.Node(), p.Primary.Node(), digestBytes(len(diff.Remote))); err != nil {
			return moved, err
		}
		n, err := r.ship(p.Primary, p.Replica, diff.Remote)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	if len(diff.Local) > 0 {
		n, err := r.ship(p.Replica, p.Primary, diff.Local)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

func (r *refSessions) ship(from, to refStore, digests []uint64) (int, error) {
	evs := r.eventBuf[:0]
	for _, d := range digests {
		if e, ok := from.Fetch(d); ok {
			evs = append(evs, e)
		}
	}
	r.eventBuf = evs
	if len(evs) == 0 {
		return 0, nil
	}
	k := len(evs[0].Values)
	if err := r.unicast(from.Node(), to.Node(), dcs.ReplyBytes(k, len(evs))); err != nil {
		return 0, err
	}
	for _, e := range evs {
		to.Insert(e)
	}
	return len(evs), nil
}

func (r *refSessions) snapshotSession(p refPair) (int, error) {
	r.bufA = p.Primary.AppendDigests(r.bufA[:0])
	r.bufB = p.Replica.AppendDigests(r.bufB[:0])
	aSet := make(map[uint64]bool, len(r.bufA))
	aUniq := r.bufA[:0]
	for _, d := range r.bufA {
		if !aSet[d] {
			aSet[d] = true
			aUniq = append(aUniq, d)
		}
	}
	bSet := make(map[uint64]bool, len(r.bufB))
	for _, d := range r.bufB {
		bSet[d] = true
	}

	// The full primary store travels even when nothing differs. The
	// deduped slice, not the set, drives enumeration so apply order stays
	// deterministic.
	evs := r.eventBuf[:0]
	for _, d := range aUniq {
		if e, ok := p.Primary.Fetch(d); ok {
			evs = append(evs, e)
		}
	}
	r.eventBuf = evs
	k := 0
	if len(evs) > 0 {
		k = len(evs[0].Values)
	}
	if err := r.unicast(p.Primary.Node(), p.Replica.Node(), dcs.ReplyBytes(k, len(evs))); err != nil {
		return 0, err
	}
	moved := 0
	for _, e := range evs {
		if !bSet[refDigest(e)] {
			p.Replica.Insert(e)
			moved++
		}
	}

	// Replica-only surplus goes back.
	var back []uint64
	for _, d := range r.bufB {
		if !aSet[d] {
			aSet[d] = true // dedup duplicates in bufB
			back = append(back, d)
		}
	}
	if len(back) > 0 {
		n, err := r.ship(p.Replica, p.Primary, back)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}
