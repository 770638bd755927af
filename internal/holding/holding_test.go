package holding

import (
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

func TestPrimaryRule(t *testing.T) {
	for _, tc := range []struct {
		p              Primary
		held           int
		landed, covers bool
		crashed, after Primary
	}{
		{Live, 0, true, false, Live, Live},
		{Live, 3, true, true, Partial, Live},
		{Live, 3, true, false, Partial, Partial},
		{Live, 3, false, true, Partial, Lost},
		{Partial, 1, true, true, Partial, Live},
		{Lost, 1, true, true, Lost, Lost},
	} {
		if got := tc.p.Crashed(tc.held); got != tc.crashed {
			t.Errorf("%d.Crashed(%d) = %d, want %d", tc.p, tc.held, got, tc.crashed)
		}
		if got := tc.p.Crashed(tc.held).Settled(tc.landed, tc.covers); got != tc.after {
			t.Errorf("%d.Crashed(%d).Settled(%v, %v) = %d, want %d", tc.p, tc.held, tc.landed, tc.covers, got, tc.after)
		}
	}
}

// TestCrashHandoverAndRestore walks one unit through a crash its mirror
// restores and then through a streamed restore, one through a crash
// nothing restores, and one through a restore no copy is left for.
func TestCrashHandoverAndRestore(t *testing.T) {
	w := newWorld(3, 4)
	w.mirrors[0] = 3
	for seq := uint64(1); seq <= 3; seq++ {
		w.st.Append(0, 0, ev(seq))
		w.st.MirrorSent(0)
		w.st.MirrorLanded(0, ev(seq), true)
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
	if p, whole := w.st.Durability(0); p != Partial || !whole {
		t.Fatalf("after the crash: %d, mirror whole %v", p, whole)
	}
	if got := seqs(w.st.Survivors(emptied[0])); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("Survivors = %v", got)
	}
	w.st.Handover(emptied[0], 1, w.st.Survivors(emptied[0]), true)
	w.st.Handover(emptied[1], 1, nil, false)
	w.st.Unrestorable(2)
	for u, want := range []Primary{Live, Lost, Lost} {
		if p, _ := w.st.Durability(u); p != want {
			t.Errorf("unit %d is %d, want %d", u, p, want)
		}
	}
	if err := w.st.CheckStore(); err != nil {
		t.Fatal(err)
	}

	// A streamed restore into a new holder settles on its last chunk, and
	// a replayed chunk changes nothing.
	w.failed[1] = true
	w.st.Crash(1)
	copyOf := w.st.MirrorCopy(0)
	w.st.Restore(0, 2, copyOf[:2], false, func(event.Event) bool { return true })
	if p, _ := w.st.Durability(0); p != Partial {
		t.Errorf("a restore in flight left %d, want partial", p)
	}
	w.st.Restore(0, 2, copyOf, true, func(event.Event) bool { return true })
	if got := seqs(w.primaryEvents(0)); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Errorf("restored primary = %v, want [1 2 3]", got)
	}
	if p, _ := w.st.Durability(0); p != Live {
		t.Errorf("a restore from a whole mirror left %d, want live", p)
	}
	// What keep refuses stays out, and a lost unit stays lost.
	w.st.Restore(1, 2, []event.Event{ev(11), ev(12)}, true, func(e event.Event) bool { return e.Seq != 12 })
	if got := seqs(w.primaryEvents(1)); !slices.Equal(got, []uint64{11}) {
		t.Errorf("restore through keep = %v, want [11]", got)
	}
	if p, _ := w.st.Durability(1); p != Lost {
		t.Errorf("a lost unit restored into is %d", p)
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

// TestMirrorDurability covers the mirror's states: in the air, behind
// after a lost write or a crash, whole again after a re-home or a sync.
func TestMirrorDurability(t *testing.T) {
	w := newWorld(1, 3)
	w.mirrors[0] = 1
	w.st.Append(0, 0, ev(1))
	w.st.MirrorSent(0)
	if w.st.Vouches(0, true) {
		t.Error("a mirror with a write in the air vouches")
	}
	w.st.MirrorLanded(0, ev(1), false)
	if w.st.Vouches(0, true) {
		t.Error("a mirror that missed a write vouches")
	}
	w.st.ReplaceMirror(0, w.primaryEvents(0))
	if !w.st.Vouches(0, true) {
		t.Error("a re-homed copy of a live primary does not vouch")
	}
	w.failed[1] = true
	w.st.Crash(1)
	if w.st.Vouches(0, true) || w.st.MirrorRows(0).Len() != 0 {
		t.Error("a crashed mirror still vouches or holds events")
	}
	_, mirror := w.st.Copies(0, 0, 1)
	mirror.Synced()
	if !w.st.Vouches(0, true) {
		t.Error("a synced mirror of a live primary does not vouch")
	}
	if n := w.st.PruneMirror(0, func(event.Event) bool { return true }); n != 0 {
		t.Errorf("PruneMirror of an empty copy deleted %d", n)
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
// antientropy.Store surface: digests, memoised summaries, fetches across
// segments and repairs.
func TestCopiesAsReplicaPair(t *testing.T) {
	w := newWorld(1, 3)
	w.mirrors[0] = 2
	w.st.Append(0, 0, ev(1))
	w.st.AppendSegment(0, 1, ev(2))
	w.st.Append(0, 1, ev(3))
	var primary, mirror antientropy.Store
	primary, mirror = w.st.Copies(0, 0, 2)
	if primary.Node() != 0 || mirror.Node() != 2 || primary.(Copy[int]).Unit() != 0 {
		t.Fatal("copies name the wrong nodes or unit")
	}
	sum := primary.(antientropy.Summarizer).Summary()
	if len(sum.Keys) != 3 || primary.Len() != 3 || mirror.Len() != 0 {
		t.Fatalf("summary keys %d, lens %d/%d", len(sum.Keys), primary.Len(), mirror.Len())
	}
	got := primary.Fetch([]uint64{antientropy.Digest(ev(3)), 42, antientropy.Digest(ev(1))}, nil)
	if !slices.Equal(seqs(got), []uint64{1, 3}) {
		t.Errorf("Fetch = %v", seqs(got))
	}
	for _, e := range primary.Fetch(sum.Keys, nil) {
		mirror.Insert(e)
	}
	primary.Insert(ev(4))
	if primary.Len() != 4 || mirror.Len() != 3 || w.st.Segments(0)[1].Rows.Len() != 3 {
		t.Errorf("after repair: lens %d/%d, active segment %d", primary.Len(), mirror.Len(), w.st.Segments(0)[1].Rows.Len())
	}
	mirror.(antientropy.Summarizer).Summary()
	primary.(antientropy.Summarizer).Summary()
	if err := w.st.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
	// A write that forgot to end the memo's life is caught.
	w.st.copies[0].Append(ev(9))
	if err := w.st.CheckSummaries(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("CheckSummaries = %v, want a stale summary", err)
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
		{"crashless loss", func(w *world) { w.st.dur[0].primary = Lost }, "no crash"},
		{"uncovered mirror", func(w *world) { w.st.Append(0, 0, ev(5)) }, "whole mirror"},
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

// FuzzHoldingMatchesModel runs random sequences of appends, mirror sends
// and landings, crashes, handovers, restores, re-homes, recoveries and
// prunes against a flat model of every acked event per unit, with one
// segment per unit (as DIM and the synchronous Pool hold them) or several
// (delegations, the actor engine's restores). After every step the
// store's checks pass and a copy that vouches holds every acked, unpruned
// event of its unit.
func FuzzHoldingMatchesModel(f *testing.F) {
	f.Add(false, []byte{0, 0, 0, 1, 2, 3, 16, 17, 4, 5, 0, 1, 6, 7})
	f.Add(true, []byte{0, 8, 0, 9, 1, 2, 4, 3, 5, 5, 5, 0, 6, 1, 9, 7, 2})
	f.Add(true, []byte{0, 0, 0, 0, 8, 8, 3, 4, 5, 1, 5, 5, 9, 9, 6, 0, 2, 3, 7, 7})
	f.Add(false, []byte{3, 2, 1, 0, 4, 4, 4, 1, 0, 0, 0, 9, 3, 5, 5, 6})
	f.Fuzz(func(t *testing.T, several bool, ops []byte) {
		const units, nodes = 3, 5
		w := newWorld(units, nodes)
		model := make([]map[uint64]bool, units)
		holder := make([]int, units)
		for u := range model {
			model[u] = map[uint64]bool{}
			holder[u] = u
			w.mirrors[u] = 3 + u%2
		}
		type pending struct {
			u int
			e event.Event
		}
		var inAir []pending
		var restores []int
		var seq uint64
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		alive := func(from int) int {
			for i := 0; i < nodes; i++ {
				if n := (from + i) % nodes; !w.failed[n] {
					return n
				}
			}
			return -1
		}
		all := func(event.Event) bool { return true }

		for len(ops) > 0 {
			op, arg := next(), next()
			u := arg % units
			switch op % 10 {
			case 0, 1: // append at the holder, a delegate segment when several
				if w.failed[holder[u]] {
					break
				}
				seq++
				e := ev(seq)
				if n := alive(arg / units); op%10 == 1 && several && n >= 0 {
					w.st.AppendSegment(u, n, e)
				} else {
					w.st.Append(u, holder[u], e)
				}
				model[u][seq] = true
				if m := w.mirrors[u]; m >= 0 && !w.failed[m] {
					w.st.MirrorSent(u)
					inAir = append(inAir, pending{u, e})
				}
			case 2: // a mirror write lands or is lost
				if len(inAir) > 0 {
					p := inAir[0]
					inAir = inAir[1:]
					w.st.MirrorLanded(p.u, p.e, arg%3 != 0)
				}
			case 3: // a crash; one segment per unit is handed over at once
				n := arg % nodes
				if w.failed[n] {
					break
				}
				if w.failed[n] = true; alive(n) < 0 {
					w.failed[n] = false // the last node alive stays up
					break
				}
				for v := range holder {
					if holder[v] == n {
						holder[v] = alive(n + 1)
					}
				}
				for _, l := range w.st.Crash(n) {
					switch m := w.mirrors[l.Unit]; {
					case several:
						restores = append(restores, l.Unit)
					case m >= 0 && !w.failed[m]:
						w.st.Handover(l, holder[l.Unit], w.st.Survivors(l), true)
					default:
						w.st.Handover(l, holder[l.Unit], nil, false)
					}
				}
			case 4: // a restore streams the mirror's copy in two chunks
				if len(restores) == 0 {
					break
				}
				v := restores[0]
				if m := w.mirrors[v]; m < 0 || w.failed[m] || w.failed[holder[v]] {
					w.st.Unrestorable(v)
					restores = restores[1:]
					break
				}
				chunk := w.st.MirrorCopy(v)
				if half := len(chunk) / 2; arg%2 == 0 && half > 0 {
					w.st.Restore(v, holder[v], chunk[:half], false, all)
					break
				}
				w.st.Restore(v, holder[v], chunk, true, all)
				restores = restores[1:]
			case 5: // a re-home ships the primary to a new mirror
				if m := alive(arg / units); m >= 0 {
					w.mirrors[u] = m
					w.st.ReplaceMirror(u, w.primaryEvents(u))
				}
			case 6: // a deletion prunes both copies
				match := func(e event.Event) bool { return e.Seq%3 == uint64(arg/units)%3 }
				for j := range w.st.Segments(u) {
					w.st.Prune(u, j, match)
				}
				w.st.PruneMirror(u, match)
				for s := range model[u] {
					if match(ev(s)) {
						delete(model[u], s)
					}
				}
			case 7: // a recovery brings a node back empty
				w.failed[arg%nodes] = false
			case 8: // warm the summary memos
				for v := 0; v < units; v++ {
					p, m := w.st.Copies(v, holder[v], w.mirrors[v])
					p.Summary()
					m.Summary()
				}
			case 9: // a re-home that found no node leaves no mirror
				w.mirrors[u] = -1
				w.st.ReplaceMirror(u, nil)
			}

			if err := w.st.CheckStore(); err != nil {
				t.Fatalf("op %d: %v", op%10, err)
			}
			if err := w.st.CheckSummaries(); err != nil {
				t.Fatalf("op %d: %v", op%10, err)
			}
			for v := 0; v < units; v++ {
				for _, c := range []struct {
					name   string
					mirror bool
					events []event.Event
				}{{"primary", false, w.primaryEvents(v)}, {"mirror", true, w.st.MirrorCopy(v)}} {
					if !w.st.Vouches(v, c.mirror) || c.mirror && w.mirrors[v] < 0 {
						continue
					}
					held := map[uint64]bool{}
					for _, e := range c.events {
						held[e.Seq] = true
					}
					for s := range model[v] {
						if !held[s] {
							t.Fatalf("op %d: unit %d's %s copy vouches but misses event %d", op%10, v, c.name, s)
						}
					}
				}
			}
		}
	})
}
