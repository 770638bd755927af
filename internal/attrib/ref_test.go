package attrib

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"pooldcs/internal/trace"
)

// refRepairWindows, refAttribute and refSweep are RepairWindows and
// Attribute as they were before the trace was read in place: strings
// compared on every event, a map lookup per span reference, a reflective
// stable sort of every bucket. They are the specification the in-place
// versions are held to.
func refRepairWindows(events []trace.Event, horizon time.Duration) []Window {
	open := map[int]int{}
	var out []Window
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Type == trace.TypeFault && ev.Detail == "crash":
			if _, dup := open[ev.Node]; dup {
				continue
			}
			open[ev.Node] = len(out)
			out = append(out, Window{Node: ev.Node, Start: ev.T, End: -1})
		case ev.Type == trace.TypeRepair && ev.Detail == "done",
			ev.Type == trace.TypeFault && ev.Detail == "recover":
			if j, ok := open[ev.Node]; ok {
				out[j].End = ev.T
				delete(open, ev.Node)
			}
		}
	}
	for _, j := range open {
		out[j].End = horizon
	}
	return out
}

func refAttribute(events []trace.Event, a *trace.Analysis, opts Options) []Breakdown {
	ops := opts.Ops
	if len(ops) == 0 {
		ops = []trace.Op{trace.OpQuery}
	}
	opset := map[trace.Op]bool{}
	for _, op := range ops {
		opset[op] = true
	}
	roots := map[uint64]uint64{}
	inRetry := map[uint64]bool{}
	var resolve func(id uint64) (uint64, bool)
	resolve = func(id uint64) (uint64, bool) {
		if r, ok := roots[id]; ok {
			return r, inRetry[id]
		}
		s := a.ByID[id]
		if s == nil {
			roots[id] = 0
			return 0, false
		}
		roots[id] = id
		retry := s.Op == trace.OpRetry
		root := id
		if s.Parent != 0 && s.Parent != id && a.ByID[s.Parent] != nil {
			pr, pRetry := resolve(s.Parent)
			root = pr
			retry = retry || pRetry
		}
		roots[id] = root
		inRetry[id] = retry
		return root, retry
	}
	buckets := map[uint64][]int{}
	for i := range events {
		ev := &events[i]
		if ev.Span == 0 {
			continue
		}
		root, _ := resolve(ev.Span)
		if root == 0 {
			continue
		}
		if rs := a.ByID[root]; rs == nil || !opset[rs.Op] {
			continue
		}
		buckets[root] = append(buckets[root], i)
	}
	union := mergeWindows(refRepairWindows(events, a.Horizon))
	var out []Breakdown
	for _, rs := range a.Roots {
		if !opset[rs.Op] {
			continue
		}
		b := Breakdown{
			Span: rs.ID, Op: rs.Op, Node: rs.Node, Detail: rs.Detail,
			Start: rs.Start, End: rs.End, Total: rs.End - rs.Start,
		}
		if b.Total < 0 {
			b.Total = 0
			b.End = b.Start
		}
		idx := buckets[rs.ID]
		sort.SliceStable(idx, func(x, y int) bool { return events[idx[x]].T < events[idx[y]].T })
		for _, iv := range refSweep(events, idx, &b, inRetry) {
			d := iv.t1 - iv.t0
			if iv.phase == PhaseARQ || iv.phase == PhaseQueue || iv.phase == PhaseRetry {
				if rep := overlap(union, iv.t0, iv.t1); rep > 0 {
					b.Phases[PhaseRepair] += rep
					d -= rep
				}
			}
			b.Phases[iv.phase] += d
		}
		out = append(out, b)
	}
	return out
}

func refSweep(events []trace.Event, idx []int, b *Breakdown, inRetry map[uint64]bool) []interval {
	var out []interval
	cur := PhaseOther
	last := b.Start
	emit := func(t time.Duration) {
		if t < b.Start {
			t = b.Start
		}
		if t > b.End {
			t = b.End
		}
		if t > last {
			out = append(out, interval{cur, last, t})
			last = t
		}
	}
	for _, i := range idx {
		ev := &events[i]
		emit(ev.T)
		switch ev.Type {
		case trace.TypeHop, trace.TypeBroadcast:
			switch {
			case inRetry[ev.Span]:
				cur = PhaseRetry
			case ev.Lost:
				cur = PhaseARQ
			default:
				cur = PhaseTransmit
			}
		case trace.TypeWait:
			cur = PhaseQueue
		case trace.TypeServe:
			cur = PhaseService
		case trace.TypeReply:
			cur = PhaseMerge
		case trace.TypeSpanStart:
			if ev.Op == trace.OpRetry {
				cur = PhaseRetry
			}
		}
	}
	emit(b.End)
	return out
}

// checkAgainstRef compares Attribute and RepairWindows over log with the
// reference versions over the same events.
func checkAgainstRef(t *testing.T, log trace.Log, a *trace.Analysis, opts Options) {
	t.Helper()
	events := log.Slice()
	if got, want := Attribute(log, a, opts), refAttribute(events, a, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("Attribute differs from the reference:\n got %+v\nwant %+v", got, want)
	}
	if got, want := RepairWindows(log, a.Horizon), refRepairWindows(events, a.Horizon); !sameWindows(got, want) {
		t.Fatalf("RepairWindows = %+v, want %+v", got, want)
	}
}

// sameWindows compares window lists; the order in which windows still
// open at the horizon are closed does not reorder the list.
func sameWindows(a, b []Window) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestAttributeMatchesReferenceOnQueuedTrace: a trace where service
// starts are stamped ahead of the stream, which is what puts buckets out
// of time order, with overlapping legs, retries, faults and repairs.
func TestAttributeMatchesReferenceOnQueuedTrace(t *testing.T) {
	clock := &fakeClock{}
	for _, tr := range []*trace.Tracer{trace.New(clock), trace.NewRing(clock, 300)} {
		clock.t = 0
		for q := 0; q < 40; q++ {
			root := tr.BeginAt(0, trace.OpQuery, q, "")
			tr.PushSpan(root)
			for leg := 0; leg < 6; leg++ {
				clock.t += ms(1)
				tr.Hop(q, leg, "query", 8, 1, leg%4 == 3)
				tr.Record(trace.TypeWait, leg, leg, "")
				// Queued legs start service later than the next legs' hops.
				tr.RecordAt(clock.t+ms((leg*7)%5), trace.TypeServe, leg, 0, "")
				if leg == 2 {
					retry := tr.BeginAt(root, trace.OpRetry, leg, "mirror")
					tr.PushSpan(retry)
					tr.Hop(leg, q, "query", 8, 1, false)
					tr.PopSpan()
					tr.EndSpan(retry)
				}
			}
			tr.PopSpan()
			if q%7 == 0 {
				tr.Record(trace.TypeFault, q, 0, "crash")
			}
			if q%7 == 3 {
				tr.Record(trace.TypeRepair, q-3, 0, "done")
			}
			clock.t += ms(3)
			tr.PushSpan(root)
			tr.Record(trace.TypeReply, q, 4, "")
			tr.PopSpan()
			clock.t += ms(1)
			tr.EndSpan(root)
		}
		a, bds := Analyze(tr, Options{})
		if len(bds) == 0 {
			t.Fatal("no breakdowns")
		}
		checkSums(t, bds)
		checkAgainstRef(t, tr.Events(), a, Options{})
		checkAgainstRef(t, tr.Events(), a, Options{Ops: []trace.Op{trace.OpQuery, trace.OpRetry}})
	}
}

// TestTimeOrderIsTheStableSort holds the pull-out-and-merge ordering to
// sort.SliceStable on sequences with every mix of records stamped ahead.
func TestTimeOrderIsTheStableSort(t *testing.T) {
	var order timeOrder
	for _, stamps := range [][]int{
		{}, {5}, {1, 2, 3}, {3, 2, 1}, {1, 2, 3, 10, 4, 5, 6, 7, 11},
		{1, 9, 2, 9, 3, 9, 3, 3, 9, 1}, {4, 4, 4, 4}, {2, 1, 2, 1, 2, 1}, {0, -3, 7, -3, 0},
	} {
		events := make([]trace.Event, 2*len(stamps))
		var idx, want []int32
		for i, s := range stamps {
			events[2*i+1].T = ms(s) // odd slots, so indices are not positions
			idx = append(idx, int32(2*i+1))
			want = append(want, int32(2*i+1))
		}
		sort.SliceStable(want, func(x, y int) bool { return events[want[x]].T < events[want[y]].T })
		order.sort(trace.LogOf(events), idx)
		if !reflect.DeepEqual(idx, want) {
			t.Errorf("stamps %v: order %v, want %v", stamps, idx, want)
		}
	}
}
