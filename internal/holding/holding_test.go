package holding

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
)

// world is a small scheme for the tests: units named by their slot, a
// failed flag per node and a mirror node per unit (-1: none).
type world struct {
	failed  []bool
	mirrors []int
	st      *Store[int]
}

func newWorld(units, nodes int) *world {
	w := &world{failed: make([]bool, nodes), mirrors: make([]int, units)}
	for u := range w.mirrors {
		w.mirrors[u] = -1
	}
	same := func(i int) int {
		if i < 0 || i >= units {
			return -1
		}
		return i
	}
	w.st = New(units, nodes, Scheme[int]{Slot: same, Unit: same,
		Failed: func(n int) bool { return w.failed[n] }, MirrorAt: func(i int) int { return w.mirrors[i] }})
	return w
}

func ev(seq uint64) event.Event {
	return event.Event{Values: []float64{float64(seq%7) / 7, float64(seq%5) / 5, float64(seq%3) / 3}, Seq: seq}
}

func seqs(events []event.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	slices.Sort(out)
	return out
}

// primaryEvents returns every event of u's segments, in order.
func (w *world) primaryEvents(u int) []event.Event {
	var out []event.Event
	for _, seg := range w.st.Segments(u) {
		out = seg.Rows.AppendTo(out)
	}
	return out
}

// vouching returns whether each unit's primary copy vouches.
func (w *world) vouching() []bool {
	out := make([]bool, len(w.mirrors))
	for u := range out {
		out[u] = w.st.Vouches(u, false)
	}
	return out
}

// TestCrashHandoverAndRestore walks one unit through a crash its mirror
// restores and then through a streamed restore, one through a crash
// nothing restores, and one through a restore no copy is left for.
func TestCrashHandoverAndRestore(t *testing.T) {
	w := newWorld(3, 4)
	w.mirrors[0] = 3
	for seq := uint64(1); seq <= 3; seq++ {
		w.st.Append(0, 0, ev(seq))
		w.st.AppendMirror(0, ev(seq))
	}
	w.st.Append(1, 0, ev(10))
	w.st.Append(2, 0, ev(20))
	if !w.st.Vouches(0, false) || !w.st.Vouches(0, true) || w.st.Stored(0) != 5 {
		t.Fatalf("before the crash: vouches %v/%v, node 0 holds %d", w.st.Vouches(0, false), w.st.Vouches(0, true), w.st.Stored(0))
	}

	w.failed[0] = true
	emptied := w.st.Crash(0)
	if len(emptied) != 3 || emptied[0].Unit != 0 || emptied[2].Unit != 2 || emptied[0].Rows.Len() != 3 {
		t.Fatalf("Crash = %+v", emptied)
	}
	if w.st.Vouches(0, false) || !w.st.Vouches(0, true) {
		t.Fatalf("after the crash: primary vouches %v, mirror %v", w.st.Vouches(0, false), w.st.Vouches(0, true))
	}
	if got := seqs(w.st.Survivors(emptied[0])); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("Survivors = %v", got)
	}
	w.st.Handover(emptied[0], 1, w.st.Survivors(emptied[0]))
	w.st.Handover(emptied[1], 1, nil)
	if got := w.vouching(); !slices.Equal(got, []bool{true, false, false}) {
		t.Errorf("primaries vouch %v, want only the restored one", got)
	}
	if err := w.st.CheckStore(); err != nil {
		t.Fatal(err)
	}

	// A streamed restore into a new holder settles on its last chunk, and
	// a replayed chunk changes nothing.
	w.failed[1] = true
	w.st.Crash(1)
	copyOf := w.st.MirrorCopy(0)
	w.st.Restore(0, 2, copyOf[:2], func(event.Event) bool { return true })
	if w.st.Vouches(0, false) {
		t.Error("a restore in flight vouches")
	}
	w.st.Restore(0, 2, copyOf, func(event.Event) bool { return true })
	if got := seqs(w.primaryEvents(0)); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Errorf("restored primary = %v, want [1 2 3]", got)
	}
	if !w.st.Vouches(0, false) {
		t.Error("a restore from a whole mirror does not vouch")
	}
	// What keep refuses stays out, and a lost unit stays lost.
	w.st.Restore(1, 2, []event.Event{ev(11), ev(12)}, func(e event.Event) bool { return e.Seq != 12 })
	if got := seqs(w.primaryEvents(1)); !slices.Equal(got, []uint64{11}) {
		t.Errorf("restore through keep = %v, want [11]", got)
	}
	if w.st.Vouches(1, false) {
		t.Error("a lost unit restored into vouches")
	}
	if err := w.st.CheckStore(); err != nil {
		t.Fatal(err)
	}
	var walked []int
	w.st.EachSegment(func(u, node int, events []event.Event) { walked = append(walked, u, node, len(events)) })
	if want := []int{0, 1, 0, 0, 2, 3, 1, 1, 0, 1, 2, 1, 2, 0, 0}; !slices.Equal(walked, want) {
		t.Errorf("EachSegment = %v, want %v", walked, want)
	}
	if load := w.st.StorageLoad(); !slices.Equal(load, []int{0, 0, 4, 0}) {
		t.Errorf("StorageLoad = %v", load)
	}
}

// TestMirrorDurability covers when a mirror vouches: not with a write in
// the air or lost, nor after a crash emptied it; again after a re-home or a
// repair lands what it missed.
func TestMirrorDurability(t *testing.T) {
	w := newWorld(1, 3)
	w.mirrors[0] = 1
	w.st.Append(0, 0, ev(1))
	if w.st.Vouches(0, true) {
		t.Error("a mirror with a write in the air, or one that missed it, vouches")
	}
	w.st.ReplaceMirror(0, w.primaryEvents(0))
	if !w.st.Vouches(0, true) {
		t.Error("a re-homed copy of a whole primary does not vouch")
	}
	w.failed[1] = true
	w.st.Crash(1)
	if w.st.Vouches(0, true) || w.st.MirrorRows(0).Len() != 0 {
		t.Error("a crashed mirror still vouches or holds events")
	}
	w.failed[1] = false
	primary, mirror := w.st.Copies(0, 0, 1)
	mirror.Insert(ev(2)) // an event its unit never acked
	if w.st.Vouches(0, true) {
		t.Error("a mirror holding only what its unit never acked vouches")
	}
	w.st.ReplaceMirror(0, nil)
	for _, e := range primary.Fetch(primary.AppendDigests(nil), nil) {
		mirror.Insert(e)
	}
	if !w.st.Vouches(0, true) || !w.st.Vouches(0, false) {
		t.Error("a mirror repaired from a whole primary does not vouch, or the primary stopped")
	}
}

// TestOutsideUnits holds the reads to a unit outside the deployment.
func TestOutsideUnits(t *testing.T) {
	w := newWorld(1, 2)
	w.st.Append(0, 0, ev(1))
	q := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	if w.st.Segments(5) != nil || w.st.MirrorRows(5) != nil || w.st.MirrorCopy(5) != nil {
		t.Error("a unit outside the deployment has segments or a copy")
	}
	if got := w.st.AppendHeldMatches(nil, q, 5, 0); got != nil {
		t.Errorf("AppendHeldMatches outside = %v", got)
	}
	if got := w.st.AppendMirrorMatches(nil, q, 5); got != nil {
		t.Errorf("AppendMirrorMatches outside = %v", got)
	}
	if got := w.st.AppendHeldMatches(nil, q, 0, 1); got != nil {
		t.Errorf("AppendHeldMatches at a node holding nothing = %v", got)
	}
	if node, held := w.st.Active(0, 1); node != 0 || held != 1 {
		t.Errorf("Active = %d, %d", node, held)
	}
}

// TestCopiesAsReplicaPair drives both copies of a unit through the
// antientropy.Store surface: digests, fetches across segments,
// fingerprints and repairs.
func TestCopiesAsReplicaPair(t *testing.T) {
	w := newWorld(1, 3)
	w.mirrors[0] = 2
	w.st.Append(0, 0, ev(1))
	w.st.AppendSegment(0, 1, ev(2))
	w.st.Append(0, 1, ev(3))
	var primary, mirror antientropy.Store
	primary, mirror = w.st.Copies(0, 0, 2)
	if primary.Node() != 0 || mirror.Node() != 2 || primary.(*Copy[int]).Unit() != 0 {
		t.Fatal("copies name the wrong nodes or unit")
	}
	held := func(c antientropy.Store) int { return len(c.AppendDigests(nil)) }
	digests := primary.AppendDigests(nil)
	if len(digests) != 3 || held(mirror) != 0 {
		t.Fatalf("%d digests, mirror holds %d", len(digests), held(mirror))
	}
	got := primary.Fetch([]uint64{antientropy.Digest(ev(3)), 42, antientropy.Digest(ev(1))}, nil)
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 1 {
		t.Errorf("Fetch = %v, want events 3 and 1 in the order asked", got)
	}
	if primary.Fingerprint() == mirror.Fingerprint() {
		t.Error("a full and an empty copy have one fingerprint")
	}
	for _, e := range primary.Fetch(digests, nil) {
		mirror.Insert(e)
	}
	if !w.st.Vouches(0, true) || mirror.Fingerprint() != primary.Fingerprint() {
		t.Error("a mirror repaired to its primary's events does not vouch, or does not agree with it")
	}
	primary.Insert(ev(4))
	if w.st.Vouches(0, false) {
		t.Error("a primary holding an event its unit never acked vouches")
	}
	if held(primary) != 4 || held(mirror) != 3 || w.st.Segments(0)[1].Rows.Len() != 3 {
		t.Errorf("after repair: lens %d/%d, active segment %d", held(primary), held(mirror), w.st.Segments(0)[1].Rows.Len())
	}
	// A copy holding an event twice holds the other's set, but not its
	// fingerprint, and a fetch of that event answers once.
	mirror.Insert(ev(4))
	mirror.Insert(ev(4))
	if mirror.Fingerprint() == primary.Fingerprint() {
		t.Error("a copy holding an event twice has the fingerprint of one holding it once")
	}
	if got := mirror.Fetch([]uint64{antientropy.Digest(ev(4))}, nil); len(got) != 1 {
		t.Errorf("Fetch of an event held twice = %v", got)
	}
	if err := w.st.CheckStore(); err != nil {
		t.Fatal(err)
	}
	// The records are the unit's own: the next call points them anew.
	if again, _ := w.st.Copies(0, 1, 0); antientropy.Store(again) != primary || primary.Node() != 1 {
		t.Error("a second Copies call handed out other records, or left their nodes")
	}
}

// TestCheckStoreNamesEachViolation breaks each rule of CheckStore once.
func TestCheckStoreNamesEachViolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(w *world)
		want  string
	}{
		{"slot", func(w *world) { w.st.sch.Slot = func(int) int { return 0 } }, "whose slot"},
		{"stale primary print", func(w *world) { w.st.segs[1][0].Rows.Append(ev(5)) }, "copy 0 (1 the mirror): kept fingerprint"},
		{"stale mirror print", func(w *world) { w.st.copies[0].Append(ev(5)) }, "copy 1 (1 the mirror): kept fingerprint"},
		{"dead holder", func(w *world) { w.failed[0] = true }, "failed node"},
		{"counter", func(w *world) { w.st.stored[1]++ }, "stored counter"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(2, 2)
			w.mirrors[0] = 1
			w.st.Append(1, 0, ev(1))
			if err := w.st.CheckStore(); err != nil {
				t.Fatal(err)
			}
			tc.spoil(w)
			if err := w.st.CheckStore(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckStore = %v, want %q", err, tc.want)
			}
		})
	}
}

// opsRun drives a store through byte-coded operations — appends, mirror
// writes landing or lost, crashes, handovers, restores, re-homes and
// recoveries — against a flat model of every acked event per unit, with
// one segment per unit (as DIM and the synchronous Pool hold them) or
// several (delegations, the actor engine's restores). After every step the
// store's checks pass and a copy that vouches holds every acked event of
// its unit. It is the body of FuzzHoldingMatchesModel and of
// TestHoldingSmallScope.
type opsRun struct {
	w        *world
	nodes    int
	several  bool
	model    []map[uint64]bool
	holder   []int
	inAir    []pending
	restores []int
	seq      uint64
}

type pending struct {
	u int
	e event.Event
}

func newOpsRun(several bool, units, nodes int) *opsRun {
	r := &opsRun{w: newWorld(units, nodes), nodes: nodes, several: several,
		model: make([]map[uint64]bool, units), holder: make([]int, units)}
	for u := range r.model {
		r.model[u] = map[uint64]bool{}
		r.holder[u] = u
		r.w.mirrors[u] = nodes - 1 - u%2
	}
	return r
}

// alive returns the first node from from on, cyclically, that is up, or
// -1.
func (r *opsRun) alive(from int) int {
	for i := 0; i < r.nodes; i++ {
		if n := (from + i) % r.nodes; !r.w.failed[n] {
			return n
		}
	}
	return -1
}

// step runs operation op%10 with argument arg and returns the first
// violation it leaves, naming the operation.
func (r *opsRun) step(op, arg int) error {
	r.do(op, arg)
	return r.check(op % 10)
}

// do runs operation op%10 with argument arg.
func (r *opsRun) do(op, arg int) {
	w, units := r.w, len(r.model)
	u := arg % units
	all := func(event.Event) bool { return true }
	// Codes 6 and 8 once deleted events and warmed summary memos; they do
	// nothing now, so every other code keeps its number and the named
	// seeds replay the operations they did.
	switch op % 10 {
	case 0, 1: // append at the holder, a delegate segment when several
		if w.failed[r.holder[u]] {
			break
		}
		r.seq++
		e := ev(r.seq)
		if n := r.alive(arg / units); op%10 == 1 && r.several && n >= 0 {
			w.st.AppendSegment(u, n, e)
		} else {
			w.st.Append(u, r.holder[u], e)
		}
		r.model[u][r.seq] = true
		if m := w.mirrors[u]; m >= 0 && !w.failed[m] {
			r.inAir = append(r.inAir, pending{u, e})
		}
	case 2: // a mirror write lands or is lost
		if len(r.inAir) > 0 {
			p := r.inAir[0]
			r.inAir = r.inAir[1:]
			if arg%3 != 0 {
				w.st.AppendMirror(p.u, p.e)
			}
		}
	case 3: // a crash; one segment per unit is handed over at once
		n := arg % r.nodes
		if w.failed[n] {
			break
		}
		if w.failed[n] = true; r.alive(n) < 0 {
			w.failed[n] = false // the last node alive stays up
			break
		}
		for v := range r.holder {
			if r.holder[v] == n {
				r.holder[v] = r.alive(n + 1)
			}
		}
		for _, l := range w.st.Crash(n) {
			switch m := w.mirrors[l.Unit]; {
			case r.several:
				r.restores = append(r.restores, l.Unit)
			case m >= 0 && !w.failed[m]:
				w.st.Handover(l, r.holder[l.Unit], w.st.Survivors(l))
			default:
				w.st.Handover(l, r.holder[l.Unit], nil)
			}
		}
	case 4: // a restore streams the mirror's copy in two chunks
		if len(r.restores) == 0 {
			break
		}
		v := r.restores[0]
		if m := w.mirrors[v]; m < 0 || w.failed[m] || w.failed[r.holder[v]] {
			r.restores = r.restores[1:]
			break
		}
		chunk := w.st.MirrorCopy(v)
		if half := len(chunk) / 2; arg%2 == 0 && half > 0 {
			w.st.Restore(v, r.holder[v], chunk[:half], all)
			break
		}
		w.st.Restore(v, r.holder[v], chunk, all)
		r.restores = r.restores[1:]
	case 5: // a re-home ships the primary to a new mirror
		if m := r.alive(arg / units); m >= 0 {
			w.mirrors[u] = m
			w.st.ReplaceMirror(u, w.primaryEvents(u))
		}
	case 7: // a recovery brings a node back empty
		w.failed[arg%r.nodes] = false
	case 9: // a re-home that found no node leaves no mirror
		w.mirrors[u] = -1
		w.st.ReplaceMirror(u, nil)
	}
}

// check returns the first violation of the store's checks or of the
// vouching rule against the model.
func (r *opsRun) check(op int) error {
	w := r.w
	if err := w.st.CheckStore(); err != nil {
		return fmt.Errorf("op %d: %v", op, err)
	}
	for v := range r.model {
		for _, c := range []struct {
			name   string
			mirror bool
		}{{"primary", false}, {"mirror", true}} {
			if !w.st.Vouches(v, c.mirror) || c.mirror && w.mirrors[v] < 0 {
				continue
			}
			events := w.primaryEvents(v)
			if c.mirror {
				events = w.st.MirrorCopy(v)
			}
			for s := range r.model[v] {
				if !slices.ContainsFunc(events, func(e event.Event) bool { return e.Seq == s }) {
					return fmt.Errorf("op %d: unit %d's %s copy vouches but misses event %d", op, v, c.name, s)
				}
			}
		}
	}
	return nil
}

// FuzzHoldingMatchesModel runs random operation sequences (opsRun) on
// three units over five nodes, two bytes an operation: its code and its
// argument. The named seeds are orders that broke a vouching rule: a
// restore settling on an emptied segment (item1-restore-overreport), and
// one that a rule counting events alone gets wrong — a mirror write from
// before a re-home landing on a copy that already holds it
// (stale-landing-duplicate).
func FuzzHoldingMatchesModel(f *testing.F) {
	f.Add(false, []byte{0, 0, 0, 1, 2, 3, 16, 17, 4, 5, 0, 1, 6, 7})
	f.Add(true, []byte{0, 8, 0, 9, 1, 2, 4, 3, 5, 5, 5, 0, 6, 1, 9, 7, 2})
	f.Add(true, []byte{0, 0, 0, 0, 8, 8, 3, 4, 5, 1, 5, 5, 9, 9, 6, 0, 2, 3, 7, 7})
	f.Add(false, []byte{3, 2, 1, 0, 4, 4, 4, 1, 0, 0, 0, 9, 3, 5, 5, 6})
	f.Fuzz(func(t *testing.T, several bool, ops []byte) {
		r := newOpsRun(several, 3, 5)
		for len(ops) > 0 {
			op, arg := ops[0], byte(0)
			if len(ops) > 1 {
				arg = ops[1]
			}
			ops = ops[min(2, len(ops)):]
			if err := r.step(int(op), int(arg)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestHoldingSmallScope runs opsRun over every sequence of up to seven
// operations on one unit over three nodes with one segment, and of up to
// five with several, each operation from a reduced alphabet: every code
// once per argument it tells apart there. Small scopes are where a wrong
// vouching rule shows first, and the fuzz engine only samples them. A
// failure names the shortest sequence.
func TestHoldingSmallScope(t *testing.T) {
	alphabet := [][2]int{
		{0, 0}, {1, 1}, {1, 2}, // append; a delegate segment at node 1 or 2
		{2, 0}, {2, 1}, // a mirror write lost, landed
		{3, 0}, {3, 1}, {3, 2}, // crash
		{4, 0}, {4, 1}, // a restore's half, its whole
		{5, 0}, {5, 1}, {5, 2}, // re-home
		{7, 0}, {7, 1}, {7, 2}, // recover
		{9, 0}, // no mirror
	}
	// With one segment a delegate append is an append and nothing restores.
	single := slices.DeleteFunc(slices.Clone(alphabet), func(a [2]int) bool { return a[0] == 1 || a[0] == 4 })
	for _, tc := range []struct {
		several  bool
		alphabet [][2]int
		maxOps   int
	}{{false, single, 7}, {true, alphabet, 5}} {
		if ops, err := smallScope(tc.several, tc.alphabet, tc.maxOps); err != nil {
			t.Fatalf("several %v: %v after %v", tc.several, err, ops)
		}
	}
}

// smallScope runs every sequence of alphabet's operations up to maxOps
// long, shortest first, and returns the first that fails and its
// violation. A sequence that reaches a state an earlier one reached is not
// extended: from equal states every step passes or fails alike.
func smallScope(several bool, alphabet [][2]int, maxOps int) ([][2]int, error) {
	seen := map[string]bool{newOpsRun(several, 1, 3).state(): true}
	frontier := [][][2]int{nil}
	for n := 1; n <= maxOps; n++ {
		var next [][][2]int
		for _, prefix := range frontier {
			for _, a := range alphabet {
				ops := append(slices.Clip(prefix), a)
				r := newOpsRun(several, 1, 3)
				for _, o := range prefix {
					r.do(o[0], o[1])
				}
				if err := r.step(a[0], a[1]); err != nil {
					return ops, err
				}
				if s := r.state(); !seen[s] {
					seen[s] = true
					next = append(next, ops)
				}
			}
		}
		frontier = next
	}
	return nil, nil
}

// state returns everything a step reads of the run, events by Seq and in
// the order they are held, each list after its length.
func (r *opsRun) state() string {
	st := r.w.st
	var b []byte
	put := func(x int) { b = binary.AppendVarint(b, int64(x)) }
	ints := func(xs []int) {
		put(len(xs))
		for _, x := range xs {
			put(x)
		}
	}
	rows := func(rs *event.Rows) {
		put(rs.Len())
		for j := 0; j < rs.Len(); j++ {
			put(int(rs.At(j).Seq))
		}
	}
	put(int(r.seq))
	ints(r.restores)
	ints(r.holder)
	ints(r.w.mirrors)
	ints(st.stored)
	for _, f := range r.w.failed {
		put(b2i(f))
	}
	put(len(r.inAir))
	for _, p := range r.inAir {
		put(p.u)
		put(int(p.e.Seq))
	}
	for u, m := range r.model {
		model := make([]int, 0, len(m))
		for s := range m {
			model = append(model, int(s))
		}
		slices.Sort(model)
		ints(model)
		b = fmt.Append(b, st.acked[u], st.held[u])
		rows(&st.copies[u])
		put(len(st.segs[u]))
		for _, seg := range st.segs[u] {
			put(seg.Node)
			rows(&seg.Rows)
		}
	}
	return string(b)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
