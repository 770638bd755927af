package antientropy

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
)

// sessionCase is one differential scenario: a pair of stores and the
// conditions its one session runs under. memo runs it on memoStores, which
// keep their fingerprints as a pool cell copy does.
type sessionCase struct {
	seed                   uint64
	common, onlyA, onlyB   int
	dupA, dupB             int
	cfg                    Config
	memo, deadReplica      bool
	lossPermille           int
	primaryNode, replicaAt int
}

// lineUniverse is sessionUniverse with a flight recorder on the radio and
// seeded frame loss, so two of them built alike see the same drops.
func lineUniverse(t *testing.T, c sessionCase) (*network.Network, *gpsr.Router, *trace.Tracer) {
	t.Helper()
	pts := make([]geo.Point, 6)
	for i := range pts {
		pts[i] = geo.Pt(float64(30*i), 0)
	}
	l, err := field.FromPositions(pts, 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	opts := []network.Option{network.WithTracer(tr)}
	if c.lossPermille > 0 {
		opts = append(opts, network.WithLossRate(float64(c.lossPermille)/1000, rng.New(int64(c.seed))))
	}
	net := network.New(l, opts...)
	if c.deadReplica {
		net.FailNode(c.replicaAt)
	}
	return net, gpsr.New(l), tr
}

// caseStores builds the two copies: common events on both sides, one-sided
// extras, and dup* events held twice (the second copy at the far end of
// the store, so first-occurrence order matters).
func caseStores(c sessionCase) (primary, replica []event.Event) {
	src := rng.New(int64(c.seed) ^ 0x5eed)
	mk := func(seq int) event.Event {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(seq)
		return e
	}
	seq := 0
	for i := 0; i < c.common; i++ {
		e := mk(seq)
		seq++
		primary, replica = append(primary, e), append(replica, e)
	}
	for i := 0; i < c.onlyA; i++ {
		primary = append(primary, mk(seq))
		seq++
	}
	for i := 0; i < c.onlyB; i++ {
		replica = append(replica, mk(seq))
		seq++
	}
	// Interleave so neither side keeps its extras at the tail.
	src.Shuffle(len(primary), func(i, j int) { primary[i], primary[j] = primary[j], primary[i] })
	src.Shuffle(len(replica), func(i, j int) { replica[i], replica[j] = replica[j], replica[i] })
	for i := 0; i < c.dupA && i < len(primary); i++ {
		primary = append(primary, primary[i])
	}
	for i := 0; i < c.dupB && i < len(replica); i++ {
		replica = append(replica, replica[i])
	}
	return primary, replica
}

// runBoth runs the case's one session through the Reconciler and through
// the reference and fails the test on any observable difference, or when
// a completed rateless session decoded a difference wider than its budget:
// a peel frees one key per pure symbol, so past maxSymbols it falls back.
func runBoth(t *testing.T, c sessionCase) {
	t.Helper()
	pEvs, rEvs := caseStores(c)

	// The rewritten path, through the public surface.
	net, router, tr := lineUniverse(t, c)
	var p, r Store
	var pMem, rMem *memStore
	if c.memo {
		pm := newMemoStore(c.primaryNode, event.CloneEvents(pEvs))
		rm := newMemoStore(c.replicaAt, event.CloneEvents(rEvs))
		p, r, pMem, rMem = pm, rm, &pm.memStore, &rm.memStore
	} else {
		pMem = &memStore{node: c.primaryNode, evs: event.CloneEvents(pEvs)}
		rMem = &memStore{node: c.replicaAt, evs: event.CloneEvents(rEvs)}
		p, r = pMem, rMem
	}
	rec := New(sim.NewScheduler(), net, router, c.cfg, &memSource{pairs: []Pair{{Primary: p, Replica: r}}})
	moved := rec.RunRound()

	// The specification.
	refNet, refRouter, refTr := lineUniverse(t, c)
	refP := refStore{&memStore{node: c.primaryNode, evs: event.CloneEvents(pEvs)}}
	refR := refStore{&memStore{node: c.replicaAt, evs: event.CloneEvents(rEvs)}}
	ref := &refSessions{net: refNet, router: refRouter}
	var refMoved int
	var refErr error
	if c.cfg.Snapshot {
		refMoved, refErr = ref.snapshotSession(refPair{refP, refR})
	} else {
		refMoved, refErr = ref.ratelessSession(refPair{refP, refR})
	}

	if moved != refMoved || rec.EventsMoved() != uint64(refMoved) {
		t.Fatalf("moved %d (counter %d), reference %d", moved, rec.EventsMoved(), refMoved)
	}
	if rec.Symbols() != ref.symbols || rec.Bytes() != ref.bytes || rec.Fallbacks() != ref.fallbacks {
		t.Fatalf("symbols/bytes/fallbacks %d/%d/%d, reference %d/%d/%d",
			rec.Symbols(), rec.Bytes(), rec.Fallbacks(), ref.symbols, ref.bytes, ref.fallbacks)
	}
	if !c.cfg.Snapshot && c.onlyA+c.onlyB > maxSymbols && rec.Sessions() == 1 && rec.Fallbacks() == 0 {
		t.Fatalf("|Δ| %d decoded within %d symbols", c.onlyA+c.onlyB, maxSymbols)
	}
	switch {
	case refErr == nil:
		if rec.Sessions() != 1 || rec.Aborted() != 0 || len(rec.Errs()) != 0 {
			t.Fatalf("reference session completed; got sessions=%d aborted=%d errs=%v",
				rec.Sessions(), rec.Aborted(), rec.Errs())
		}
	case dcs.IsDegradable(refErr):
		if rec.Sessions() != 0 || rec.Aborted() != 1 || len(rec.Errs()) != 0 {
			t.Fatalf("reference session aborted (%v); got sessions=%d aborted=%d errs=%v",
				refErr, rec.Sessions(), rec.Aborted(), rec.Errs())
		}
	default:
		if errs := rec.Errs(); len(errs) != 1 || errors.Unwrap(errs[0]).Error() != refErr.Error() {
			t.Fatalf("reference session failed hard (%v); got %v", refErr, errs)
		}
	}
	if !reflect.DeepEqual(pMem.evs, refP.m.evs) {
		t.Fatalf("primary contents differ:\n got %v\nwant %v", seqs(pMem.evs), seqs(refP.m.evs))
	}
	if !reflect.DeepEqual(rMem.evs, refR.m.evs) {
		t.Fatalf("replica contents differ:\n got %v\nwant %v", seqs(rMem.evs), seqs(refR.m.evs))
	}
	// Frame for frame, retransmissions and drops included.
	if got, want := tr.Events().Slice(), refTr.Events().Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("frame sequence differs: %d records, reference %d", len(got), len(want))
	}
	if !reflect.DeepEqual(net.Snapshot(), refNet.Snapshot()) {
		t.Fatalf("radio counters differ:\n got %+v\nwant %+v", net.Snapshot(), refNet.Snapshot())
	}
}

func seqs(evs []event.Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// The corners the fuzz seeds also start from, as a plain test. Each arm is
// a session mode and the one-sided events it adds to every shape: arm 4
// carries each past the budget, so its healthy sessions (fault0) fall back.
func TestSessionMatchesReference(t *testing.T) {
	arms := []struct {
		snapshot     bool
		onlyA, onlyB int
	}{
		{false, 0, 0}, {true, 0, 0},
		{false, 0, 40}, {false, 120, 120}, {false, 520, 0}, {true, 100, 100},
	}
	shapes := []struct{ common, onlyA, onlyB, dupA, dupB int }{
		{0, 0, 0, 0, 0}, {12, 0, 0, 0, 0}, {12, 0, 0, 3, 2},
		{0, 5, 0, 0, 0}, {0, 0, 5, 1, 1}, {20, 1, 0, 0, 0}, {20, 0, 1, 2, 0},
		{30, 4, 3, 2, 2}, {5, 40, 30, 0, 4}, {60, 60, 0, 5, 5},
		// One set on both sides, unequal fingerprints: the codec decodes
		// the empty difference the reference decodes.
		{1, 0, 0, 1, 0}, {25, 0, 0, 0, 3}, {40, 0, 0, 7, 7},
	}
	for ci, arm := range arms {
		for si, sh := range shapes {
			for _, memo := range []bool{false, true} {
				for _, fault := range []int{0, 1, 2} {
					c := sessionCase{
						seed: uint64(1000*ci + 10*si + fault), cfg: Config{Snapshot: arm.snapshot}, memo: memo,
						common: sh.common, onlyA: sh.onlyA + arm.onlyA, onlyB: sh.onlyB + arm.onlyB,
						dupA: sh.dupA, dupB: sh.dupB,
						primaryNode: si % 3, replicaAt: 3 + si%3,
						deadReplica: fault == 1,
					}
					if fault == 2 {
						c.lossPermille = 450
					}
					t.Run(fmt.Sprintf("cfg%d/shape%d/memo=%v/fault%d", ci, si, memo, fault), func(t *testing.T) { runBoth(t, c) })
				}
			}
		}
	}
}

// FuzzSessionMatchesReference holds one reconciliation session of the
// Reconciler to the reference sessions of ref_test.go: random store pairs
// — duplicates on either side, empty sides, |Δ| from 0 to past the
// 512-symbol budget — with the replica dead or frames lost mid-session,
// must yield the same moved count, symbols, bytes, fallbacks, outcome,
// frame sequence and final store contents. wide adds up to 699 events to
// one side, the replica's when flags&8 is set.
func FuzzSessionMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(2), uint8(3), uint8(0), uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(40), uint8(0), uint8(0), uint8(5), uint8(7), uint16(0), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(5), uint8(60), uint8(50), uint8(2), uint8(2), uint16(520), uint8(0), uint8(0))
	f.Add(uint64(5), uint8(20), uint8(1), uint8(0), uint8(0), uint8(0), uint16(0), uint8(1), uint8(90))
	f.Add(uint64(6), uint8(30), uint8(4), uint8(4), uint8(1), uint8(1), uint16(0), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(30), uint8(4), uint8(4), uint8(1), uint8(1), uint16(0), uint8(4), uint8(0))
	f.Add(uint64(8), uint8(0), uint8(9), uint8(0), uint8(3), uint8(0), uint16(600), uint8(13), uint8(120))
	f.Add(uint64(9), uint8(30), uint8(0), uint8(0), uint8(2), uint8(5), uint16(530), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, common, onlyA, onlyB, dupA, dupB uint8, wide uint16, flags, loss uint8) {
		c := sessionCase{
			seed:   seed,
			common: int(common) % 80, onlyA: int(onlyA) % 80, onlyB: int(onlyB) % 80,
			dupA: int(dupA) % 8, dupB: int(dupB) % 8,
			cfg:         Config{Snapshot: flags&1 != 0},
			deadReplica: flags&2 != 0, memo: flags&4 != 0,
			lossPermille: int(loss) * 3,
			primaryNode:  int(seed % 3), replicaAt: 3 + int(seed/3%3),
		}
		if flags&8 != 0 {
			c.onlyB += int(wide) % 700
		} else {
			c.onlyA += int(wide) % 700
		}
		runBoth(t, c)
	})
}

// TestEncoderStreamMatchesReference pins the lazy, typed-heap encoder's
// stream to the container/heap one symbol for symbol, and the inline
// FNV-1a to hash/fnv.
func TestEncoderStreamMatchesReference(t *testing.T) {
	src := rng.New(2024)
	sets := [][]uint64{nil, {7, 7, 7, 42, 42, 1 << 63}, nil}
	for i := 0; i < 5; i++ {
		sets[0] = append(sets[0], uint64(src.Int63()))
	}
	for i := 0; i < 3000; i++ {
		k := uint64(src.Int63())<<1 | uint64(i&1)
		sets[2] = append(sets[2], k)
		if i%97 == 0 {
			sets[2] = append(sets[2], k) // duplicates collapse
		}
	}
	for si, keys := range sets {
		enc, ref := NewEncoder(keys), refNewEncoder(keys)
		for i := 0; i < 4096; i++ {
			if got, want := enc.Next(), ref.Next(); got != want {
				t.Fatalf("set %d symbol %d = %+v, reference %+v", si, i, got, want)
			}
		}
	}
	for i := 0; i < 200; i++ {
		e := event.Event{Seq: uint64(src.Int63())}
		for d := 0; d < i%5; d++ {
			e.Values = append(e.Values, src.Float64())
		}
		if got, want := Digest(e), refDigest(e); got != want {
			t.Fatalf("Digest(%+v) = %x, hash/fnv says %x", e, got, want)
		}
	}
}

// A summary counts a digest once however often the copy holds it, and
// remembers where it first stands.
func TestSummarizeCollapsesDuplicates(t *testing.T) {
	var sum Summary
	Summarize(&sum, []uint64{9, 4, 9, 4, 2, 9})
	want := Summary{Keys: []uint64{2, 4, 9}, First: []int32{4, 1, 0}}
	_, want.Zero = sortedSet([]uint64{2, 4, 9})
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("Summarize = %+v, want %+v", sum, want)
	}
	if got := NewEncoder([]uint64{9, 4, 9, 4, 2, 9}).Next(); got != sum.Zero {
		t.Fatalf("symbol 0 = %+v, summary says %+v", got, sum.Zero)
	}
	Summarize(&sum, nil)
	if !sum.Zero.zero() || len(sum.Keys) != 0 || len(sum.First) != 0 {
		t.Fatalf("empty copy summarises as %+v", sum)
	}
}
