// Package attrib decomposes per-query wall-clock latency into named
// phases — the query autopsy. It walks the causal span tree that
// trace.Analyze reconstructs and classifies every interval of a query's
// lifetime by what the critical path was doing: radio transmission,
// ARQ-retransmission stall, service/station queueing, service execution,
// recovery detours (alternate splitters, mirror failovers, reply
// re-sends), repair interference, and reply merging. The decomposition
// is exact by construction: the phase durations of one query sum to its
// span's wall-clock extent, no interval double-counted or lost.
//
// Repair interference is a reclassification, not an independently
// measured phase: stall time (ARQ, queueing, retry detours) that falls
// inside a repair window — from a node's crash marker to the first
// repair-done or recovery marker for that node — is blamed on repair,
// because the stall only exists while the fault is being absorbed.
package attrib

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"pooldcs/internal/trace"
)

// Phase names one latency component of a query's lifetime.
type Phase int

// Phases, in report order.
const (
	// PhaseTransmit is time spent with a frame successfully in flight.
	PhaseTransmit Phase = iota
	// PhaseARQ is stall time after a lost frame, waiting out the
	// retransmission.
	PhaseARQ
	// PhaseQueue is time between entering a service/station queue and
	// service start.
	PhaseQueue
	// PhaseService is time actually being served.
	PhaseService
	// PhaseRetry is time inside a recovery detour (OpRetry subtree):
	// alternate-splitter re-plans, mirror failovers, reply re-sends.
	PhaseRetry
	// PhaseRepair is stall time reclassified as repair interference: ARQ,
	// queue, or retry stalls overlapping an open repair window.
	PhaseRepair
	// PhaseMerge is time between the reply aggregation record and span
	// close.
	PhaseMerge
	// PhaseOther is everything unclassified (instantaneous bookkeeping,
	// time before the first event).
	PhaseOther

	// NumPhases is the number of named phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"transmit", "arq", "queue", "service", "retry", "repair", "merge", "other",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Phases lists all phases in report order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Breakdown is one query's latency decomposition.
type Breakdown struct {
	// Span identifies the root span.
	Span uint64
	// Op, Node, Detail mirror the root span's identity.
	Op     trace.Op
	Node   int
	Detail string
	// Start and End bound the span.
	Start, End time.Duration
	// Phases holds the per-phase durations; they sum to Total exactly.
	Phases [NumPhases]time.Duration
	// Total is the span's wall-clock extent (End - Start).
	Total time.Duration
}

// Share returns phase p's fraction of the total (0 for zero-duration
// spans).
func (b *Breakdown) Share(p Phase) float64 {
	if b.Total <= 0 {
		return 0
	}
	return float64(b.Phases[p]) / float64(b.Total)
}

// String renders the breakdown as one line, listing non-zero phases.
func (b *Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s#%d node=%d total=%v", b.Op, b.Span, b.Node, b.Total)
	for p := Phase(0); p < NumPhases; p++ {
		if b.Phases[p] > 0 {
			fmt.Fprintf(&sb, " %s=%v", p, b.Phases[p])
		}
	}
	return sb.String()
}

// Window is one repair-interference window: the node's crash until the
// first repair-done or recovery marker for it (or the horizon if the
// trace ends first).
type Window struct {
	Node       int
	Start, End time.Duration
}

// RepairWindows extracts the repair-interference windows from a log.
// horizon closes windows still open at the end of the trace.
func RepairWindows(events trace.Log, horizon time.Duration) []Window {
	// The three markers are compared by table id; one the log cannot hold
	// gets an id no record carries.
	id := func(s string) uint32 {
		if id, ok := events.DetailID(s); ok {
			return id
		}
		return math.MaxUint32
	}
	crash, recovered, done := id("crash"), id("recover"), id("done")
	open := map[int32]int{} // node -> index into out
	var out []Window
	for i, n := 0, events.Len(); i < n; i++ {
		ev := events.At(i)
		switch { // every case tests Type first: other records cost one compare
		case ev.Type == trace.TypeFault && ev.Detail == crash:
			if _, dup := open[ev.Node]; dup {
				continue // crash of an already-crashed node
			}
			open[ev.Node] = len(out)
			out = append(out, Window{Node: int(ev.Node), Start: ev.T, End: -1})
		case ev.Type == trace.TypeRepair && ev.Detail == done,
			ev.Type == trace.TypeFault && ev.Detail == recovered:
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

// mergeWindows flattens windows into a sorted, disjoint union.
func mergeWindows(ws []Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	sorted := append([]Window(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := sorted[:1]
	for _, w := range sorted[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// overlap returns the portion of [t0, t1) covered by the disjoint sorted
// union.
func overlap(union []Window, t0, t1 time.Duration) time.Duration {
	var covered time.Duration
	for _, w := range union {
		if w.End <= t0 {
			continue
		}
		if w.Start >= t1 {
			break
		}
		lo, hi := t0, t1
		if w.Start > lo {
			lo = w.Start
		}
		if w.End < hi {
			hi = w.End
		}
		if hi > lo {
			covered += hi - lo
		}
	}
	return covered
}

// Options tunes Attribute.
type Options struct {
	// Ops selects the root operations to decompose; default: queries
	// only.
	Ops []trace.Op
}

// interval is one classified slice of a query's lifetime.
type interval struct {
	phase  Phase
	t0, t1 time.Duration
}

// Analyze is the whole read of a tracer: its records are analyzed and
// attributed where they lie, and nothing of the ring is copied. Both
// results alias the tracer's storage, so read them before it records
// again (see trace.Tracer.Events).
func Analyze(tr *trace.Tracer, opts Options) (*trace.Analysis, []Breakdown) {
	events := tr.Events()
	a, _ := trace.Analyze(events) // its error is always nil
	return a, Attribute(events, a, opts)
}

// spanInfo is what Attribute needs to know of a span: the root it hangs
// under (0 when the span is unknown), whether it sits inside an OpRetry
// detour, and — on a selected root — the indices of the records of its
// subtree in stream order, with whether that is also time order.
type spanInfo struct {
	root     uint64
	inRetry  bool
	idx      []int32
	lastT    time.Duration
	unsorted bool
}

// add appends record i, stamped t, to a root's bucket.
func (si *spanInfo) add(i int32, t time.Duration) {
	if t < si.lastT {
		si.unsorted = true
	}
	si.lastT = t
	si.idx = append(si.idx, i)
}

// timeKey is a bucket entry with its timestamp beside it, so that sorting
// a bucket does not chase every comparison into the ring.
type timeKey struct {
	t time.Duration
	i int32
}

func (x timeKey) compare(y timeKey) int {
	return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.i, y.i))
}

// timeOrder restores the timeline of a bucket, reusing its scratch from
// one bucket to the next.
type timeOrder struct {
	keys, ahead []timeKey
}

// sort reorders idx, which is in stream order, by timestamp; records
// with equal stamps keep their stream order, so the result is the stable
// sort. Only RecordAt stamps a record out of stream order, and it stamps
// ahead (a service start at the busy-until watermark): scanning backwards,
// such a record is one stamped later than something recorded after it.
// Those few are pulled out, sorted among themselves and merged back into
// the rest, which is already in order — O(n + k log k) for k records
// ahead, and an ordinary sort when every record is.
func (o *timeOrder) sort(events trace.Log, idx []int32) {
	keys := o.keys[:0]
	for _, i := range idx {
		keys = append(keys, timeKey{events.At(int(i)).T, i})
	}
	ahead := o.ahead[:0]
	w := len(keys)
	least := time.Duration(math.MaxInt64)
	for j := len(keys) - 1; j >= 0; j-- {
		if k := keys[j]; k.t <= least {
			least = k.t
			w--
			keys[w] = k
		} else {
			ahead = append(ahead, k)
		}
	}
	o.keys, o.ahead = keys, ahead
	slices.SortFunc(ahead, timeKey.compare)
	rest := keys[w:]
	for n := range idx {
		if len(ahead) == 0 || (len(rest) > 0 && rest[0].compare(ahead[0]) < 0) {
			idx[n], rest = rest[0].i, rest[1:]
		} else {
			idx[n], ahead = ahead[0].i, ahead[1:]
		}
	}
}

// Attribute decomposes every selected root span of the trace into a
// Breakdown. events is the log the Analysis was built from; passing the
// pair keeps hop-level evidence (which Analysis aggregates away)
// available without re-analyzing. Breakdowns come back in root start
// order. Works on truncated analyses: evicted evidence simply leaves
// more time in the "other" phase.
func Attribute(events trace.Log, a *trace.Analysis, opts Options) []Breakdown {
	ops := opts.Ops
	if len(ops) == 0 {
		ops = []trace.Op{trace.OpQuery}
	}
	selected := func(op trace.Op) bool { return slices.Contains(ops, op) }

	// Resolve each span to its root and whether it sits inside an
	// OpRetry detour, memoized over the span tree.
	spans := make(map[uint64]*spanInfo, len(a.ByID))
	var resolve func(id uint64) *spanInfo
	resolve = func(id uint64) *spanInfo {
		if si, ok := spans[id]; ok {
			return si
		}
		si := &spanInfo{}
		spans[id] = si
		s := a.ByID[id]
		if s == nil {
			return si
		}
		// Provisional self-root entry breaks parent cycles in corrupt
		// streams (a span claiming itself as ancestor).
		si.root = id
		retry := s.Op == trace.OpRetry
		if s.Parent != 0 && s.Parent != id && a.ByID[s.Parent] != nil {
			parent := resolve(s.Parent)
			si.root = parent.root
			retry = retry || parent.inRetry
		}
		si.inRetry = retry
		return si
	}

	// Bucket record indices per selected root, preserving stream order.
	// Consecutive records nearly always share a span, so the last answer
	// is kept.
	var lastID uint64
	var bucket *spanInfo
	for i, n := 0, events.Len(); i < n; i++ {
		ev := events.At(i)
		if ev.Span == 0 {
			continue
		}
		if ev.Span != lastID {
			lastID, bucket = ev.Span, nil
			if root := resolve(ev.Span).root; root != 0 {
				if rs := a.ByID[root]; rs != nil && selected(rs.Op) {
					bucket = spans[root]
				}
			}
		}
		if bucket != nil {
			bucket.add(int32(i), ev.T)
		}
	}

	union := mergeWindows(RepairWindows(events, a.Horizon))

	var out []Breakdown
	var intervals []interval
	var order timeOrder
	for _, rs := range a.Roots {
		if !selected(rs.Op) {
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
		var idx []int32
		if si := spans[rs.ID]; si != nil {
			idx = si.idx
			// Only RecordAt stamps records out of append order; when it
			// did, restore the timeline. Simultaneous events keep their
			// causal (stream) order: the index breaks ties.
			if si.unsorted {
				order.sort(events, idx)
			}
		}

		intervals = sweep(intervals[:0], events, idx, &b, spans)
		for _, iv := range intervals {
			d := iv.t1 - iv.t0
			phase := iv.phase
			if phase == PhaseARQ || phase == PhaseQueue || phase == PhaseRetry {
				if rep := overlap(union, iv.t0, iv.t1); rep > 0 {
					b.Phases[PhaseRepair] += rep
					d -= rep
				}
			}
			b.Phases[phase] += d
		}
		out = append(out, b)
	}
	return out
}

// sweep classifies the query's lifetime chronologically: each event
// closes the interval since the previous one under the current phase,
// then selects the phase the query enters. The intervals are appended to
// out.
func sweep(out []interval, events trace.Log, idx []int32, b *Breakdown, spans map[uint64]*spanInfo) []interval {
	cur := PhaseOther
	last := b.Start
	emit := func(t time.Duration) {
		// Clamp to the span: RecordAt evidence can stamp slightly
		// outside a truncated span's reconstructed bounds.
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
		ev := events.At(int(i))
		emit(ev.T)
		switch ev.Type {
		case trace.TypeHop, trace.TypeBroadcast:
			switch {
			case spans[ev.Span].inRetry:
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
			if events.Op(ev) == trace.OpRetry {
				cur = PhaseRetry
			}
			// Other span starts are transparent bookkeeping.
		}
		// Everything else (place, fanout, resolve, span ends, faults) is
		// transparent: it closes the interval but keeps the phase.
	}
	emit(b.End)
	return out
}
