package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refSpan and refAnalysis are what refAnalyze builds: the parts of Span
// and Analysis a reader can see.
type refSpan struct {
	ID, Parent                 uint64
	Op                         Op
	Node                       int
	Detail                     string
	Start, End                 time.Duration
	HopsOwn, BytesOwn, LostOwn uint64
	// Items: a record by its index in the stream, or a child span.
	Items []refItem
}

type refItem struct {
	Record int
	Child  *refSpan
}

type refAnalysis struct {
	Roots            []*refSpan
	ByID             map[uint64]*refSpan
	ByKind           map[string]KindTotals
	Nodes            map[int]NodeTotals
	Horizon          time.Duration
	BackgroundFrames uint64
	Truncated        bool
}

// refAnalyze is Analyze as it was before records were stored packed and
// read in place: a map lookup per span reference, a string-keyed
// read-modify-write per hop. It is the specification the in-place
// analysis is held to.
func refAnalyze(events []Event) *refAnalysis {
	a := &refAnalysis{
		ByID:   make(map[uint64]*refSpan),
		ByKind: make(map[string]KindTotals),
		Nodes:  make(map[int]NodeTotals),
	}
	span := func(id uint64) *refSpan {
		if id == 0 {
			return nil
		}
		s, ok := a.ByID[id]
		if !ok {
			a.Truncated = true
			return nil
		}
		return s
	}
	closed := make(map[uint64]bool)
	for i := range events {
		ev := &events[i]
		if ev.T > a.Horizon {
			a.Horizon = ev.T
		}
		switch ev.Type {
		case TypeSpanStart:
			if _, dup := a.ByID[ev.Span]; dup {
				a.Truncated = true
				continue
			}
			s := &refSpan{
				ID: ev.Span, Op: ev.Op, Node: ev.Node, Detail: ev.Detail,
				Parent: ev.Parent, Start: ev.T, End: ev.T,
			}
			a.ByID[ev.Span] = s
			if ev.Parent == ev.Span {
				a.Truncated = true
				a.Roots = append(a.Roots, s)
				continue
			}
			if parent := span(ev.Parent); parent == nil {
				a.Roots = append(a.Roots, s)
			} else {
				parent.Items = append(parent.Items, refItem{Record: -1, Child: s})
			}
		case TypeSpanEnd:
			if s := span(ev.Span); s != nil {
				s.End = ev.T
				closed[s.ID] = true
			}
		case TypeHop, TypeBroadcast:
			s := span(ev.Span)
			frames := uint64(ev.Frames)
			lost := uint64(0)
			if ev.Lost {
				lost = frames
			}
			if ev.Type == TypeBroadcast {
				lost += frames * uint64(ev.NLost)
			}
			kt := a.ByKind[ev.Kind]
			kt.Frames += frames
			kt.Bytes += uint64(ev.Bytes)
			kt.Lost += lost
			a.ByKind[ev.Kind] = kt
			tx := a.Nodes[ev.From]
			tx.Node, tx.Tx = ev.From, tx.Tx+frames
			a.Nodes[ev.From] = tx
			if ev.Type == TypeHop && !ev.Lost {
				rx := a.Nodes[ev.To]
				rx.Node, rx.Rx = ev.To, rx.Rx+frames
				a.Nodes[ev.To] = rx
			}
			if s == nil {
				a.BackgroundFrames += frames
			} else {
				s.HopsOwn += frames
				s.BytesOwn += uint64(ev.Bytes)
				s.LostOwn += lost
			}
		default:
			if s := span(ev.Span); s != nil {
				s.Items = append(s.Items, refItem{Record: i})
			}
		}
	}
	for id, s := range a.ByID {
		if !closed[id] && a.Horizon > s.End {
			s.End = a.Horizon
			a.Truncated = true
		}
	}
	return a
}

// checkAgainstRef compares an Analysis of log with the reference analysis
// of the same events.
func checkAgainstRef(t *testing.T, log Log) {
	t.Helper()
	events := log.Slice()
	want := refAnalyze(events)
	got, err := Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != len(events) || got.Horizon != want.Horizon ||
		got.BackgroundFrames != want.BackgroundFrames || got.Truncated != want.Truncated {
		t.Fatalf("events %d horizon %v background %d truncated %v, want %d %v %d %v",
			got.Events, got.Horizon, got.BackgroundFrames, got.Truncated,
			len(events), want.Horizon, want.BackgroundFrames, want.Truncated)
	}
	if !reflect.DeepEqual(got.ByKind, want.ByKind) {
		t.Fatalf("ByKind = %v, want %v", got.ByKind, want.ByKind)
	}
	nodes := map[int]NodeTotals{}
	for id, n := range got.Nodes {
		nodes[id] = *n
	}
	if !reflect.DeepEqual(nodes, want.Nodes) {
		t.Fatalf("Nodes = %v, want %v", nodes, want.Nodes)
	}
	if len(got.ByID) != len(want.ByID) || len(got.Roots) != len(want.Roots) {
		t.Fatalf("%d spans %d roots, want %d and %d", len(got.ByID), len(got.Roots), len(want.ByID), len(want.Roots))
	}
	var same func(g *Span, w *refSpan)
	same = func(g *Span, w *refSpan) {
		if g.ID != w.ID || g.Parent != w.Parent || g.Op != w.Op || g.Node != w.Node || g.Detail != w.Detail ||
			g.Start != w.Start || g.End != w.End || g.HopsOwn != w.HopsOwn || g.BytesOwn != w.BytesOwn ||
			g.LostOwn != w.LostOwn || len(g.Items) != len(w.Items) {
			t.Fatalf("span %d = %+v, want %+v", w.ID, g, w)
		}
		if got.ByID[g.ID] != g {
			t.Fatalf("span %d is not the one ByID holds", g.ID)
		}
		for i, it := range g.Items {
			switch wi := w.Items[i]; {
			case wi.Child != nil:
				if it.Child == nil {
					t.Fatalf("span %d item %d: want child %d", w.ID, i, wi.Child.ID)
				}
				same(it.Child, wi.Child)
			case it.Record == nil || log.Unpack(it.Record) != events[wi.Record]:
				t.Fatalf("span %d item %d: want record %+v", w.ID, i, events[wi.Record])
			}
		}
	}
	for i, r := range got.Roots {
		same(r, want.Roots[i])
	}
}

// TestAnalyzeMatchesReference holds the in-place analysis to the old one
// on well-formed traces (unbounded and ring-evicted) and on adversarial
// streams: dangling and re-used span ids, self-parents, negative and huge
// node ids, kinds and details from a small vocabulary so they collide.
func TestAnalyzeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		all := newScripter(seed, New)
		ring := newScripter(seed, func(c Clock) *Tracer { return NewRing(c, 700) })
		for i := 0; i < 3000; i++ {
			all.step()
			ring.step()
		}
		checkAgainstRef(t, all.tr.Events())
		checkAgainstRef(t, ring.tr.Events())
	}
	rnd := rand.New(rand.NewSource(9))
	kinds := []string{"", "query", "reply", "control"}
	nodes := []int{-1, 0, 1, 2, 899, denseNodes - 1, denseNodes, 1 << 30, -7}
	for round := 0; round < 200; round++ {
		events := make([]Event, rnd.Intn(120))
		var now time.Duration
		for i := range events {
			now += time.Duration(rnd.Intn(7)-2) * time.Millisecond
			events[i] = Event{
				T: now, Type: TypeSpanStart + Type(rnd.Intn(13)),
				Span: uint64(rnd.Intn(8)), Parent: uint64(rnd.Intn(8)),
				Op: []Op{OpQuery, OpRetry, ""}[rnd.Intn(3)], Kind: kinds[rnd.Intn(len(kinds))],
				From: nodes[rnd.Intn(len(nodes))], To: nodes[rnd.Intn(len(nodes))], Node: nodes[rnd.Intn(len(nodes))],
				Frames: rnd.Intn(3), Bytes: rnd.Intn(50), NLost: rnd.Intn(3), Lost: rnd.Intn(3) == 0,
				Detail: []string{"", "crash", "P1"}[rnd.Intn(3)],
			}
		}
		checkAgainstRef(t, LogOf(events))
	}
}
