package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pooldcs/internal/stats"
)

// KindTotals aggregates the traffic of one class across a trace.
type KindTotals struct {
	// Frames counts transmissions (one per link-layer frame), matching
	// network.Counters.Messages.
	Frames uint64
	// Bytes counts payload bytes, matching network.Counters.Bytes.
	Bytes uint64
	// Lost counts drops by the lossy-link model: whole frames for
	// unicast hops, individual missed receptions for broadcasts.
	Lost uint64
}

// NodeTotals is one node's hop-level load.
type NodeTotals struct {
	Node   int
	Tx, Rx uint64
}

// Total returns the node's combined load.
func (n NodeTotals) Total() uint64 { return n.Tx + n.Rx }

// Item is one chronological entry of a span: either a semantic record or
// a child span. Record points into the analyzed Log's storage, so an
// Analysis is valid for as long as its Log is.
type Item struct {
	Record *Record
	Child  *Span
}

// Span is one reconstructed span with its children, records, and traffic.
type Span struct {
	ID     uint64
	Op     Op
	Node   int
	Detail string
	Parent uint64
	Start  time.Duration
	End    time.Duration
	// Items holds records and child spans in event order.
	Items []Item
	// HopsOwn / BytesOwn / LostOwn count traffic recorded directly in
	// this span, excluding children.
	HopsOwn  uint64
	BytesOwn uint64
	LostOwn  uint64

	children []*Span
	closed   bool
	log      Log // resolves the string ids of Items' records
}

// Duration returns the span's virtual-time extent (zero in traces
// recorded without a scheduler).
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// Hops returns the frames sent in this span and all its descendants.
func (s *Span) Hops() uint64 {
	total := s.HopsOwn
	for _, c := range s.children {
		total += c.Hops()
	}
	return total
}

// Lost returns the lost frames in this span and all its descendants.
func (s *Span) Lost() uint64 {
	total := s.LostOwn
	for _, c := range s.children {
		total += c.Lost()
	}
	return total
}

// Analysis is the digest of a trace.
type Analysis struct {
	// Events is the number of trace records analyzed.
	Events int
	// Roots lists top-level spans in start order.
	Roots []*Span
	// ByID indexes every span.
	ByID map[uint64]*Span
	// ByKind aggregates hop traffic per kind, spanned or not.
	ByKind map[string]KindTotals
	// Nodes aggregates per-node hop load.
	Nodes map[int]*NodeTotals
	// Horizon is the largest timestamp seen.
	Horizon time.Duration
	// BackgroundFrames counts frames recorded outside any span.
	BackgroundFrames uint64
	// Truncated reports that the stream was partial: a span started
	// twice, an event referenced a span whose start was never seen
	// (ring-buffer eviction, mid-drain JSONL truncation), or a span was
	// never closed. The Analysis is still usable — orphaned traffic
	// counts as background, unclosed spans end at the horizon.
	Truncated bool
}

// denseNodes bounds the node ids Analyze tallies through a slice instead
// of the Nodes map.
const denseNodes = 1 << 16

// Analyze reconstructs spans and aggregates from a log, reading the
// records in place. Unbalanced streams — ring-evicted flight-recorder
// contents, JSONL cut off mid-drain, spans still open at the horizon —
// never fail: the partial structure is reconstructed and Truncated is
// set. The error return is always nil and kept only for call-site
// stability.
func Analyze(log Log) (*Analysis, error) {
	a := &Analysis{
		Events: log.Len(),
		ByID:   make(map[uint64]*Span),
		ByKind: make(map[string]KindTotals),
		Nodes:  make(map[int]*NodeTotals),
	}
	// span resolves a span reference; an unknown id marks the stream
	// truncated and demotes the event to background. Consecutive records
	// nearly always share a span, so the last hit is kept.
	var last *Span
	span := func(id uint64) *Span {
		if id == 0 {
			return nil
		}
		if last != nil && last.ID == id {
			return last
		}
		s, ok := a.ByID[id]
		if !ok {
			a.Truncated = true
			return nil
		}
		last = s
		return s
	}
	// node finds a node's totals: through dense for the small non-negative
	// ids a deployment has, through the map for anything else.
	var dense []*NodeTotals
	node := func(id int32) *NodeTotals {
		if uint32(id) < uint32(len(dense)) && dense[id] != nil {
			return dense[id]
		}
		n, ok := a.Nodes[int(id)]
		if !ok {
			n = &NodeTotals{Node: int(id)}
			a.Nodes[int(id)] = n
		}
		if id >= 0 && id < denseNodes {
			for len(dense) <= int(id) {
				dense = append(dense, nil)
			}
			dense[id] = n
		}
		return n
	}
	// Traffic is tallied per kind id; the exported map is built once at
	// the end.
	var kinds [maxByteIDs]struct {
		KindTotals
		seen bool
	}
	for i, n := 0, log.Len(); i < n; i++ {
		ev := log.At(i)
		if ev.T > a.Horizon {
			a.Horizon = ev.T
		}
		switch ev.Type {
		case TypeSpanStart:
			if _, dup := a.ByID[ev.Span]; dup {
				// A re-used id (corrupt or spliced stream): keep the
				// first definition, flag the stream.
				a.Truncated = true
				continue
			}
			s := &Span{
				ID: ev.Span, Op: log.Op(ev), Node: int(ev.Node), Detail: log.Detail(ev),
				Parent: ev.Parent, Start: ev.T, End: ev.T, log: log,
			}
			a.ByID[ev.Span] = s
			if ev.Parent == ev.Span {
				// A self-parenting span would cycle the tree; demote it
				// to a root.
				a.Truncated = true
				a.Roots = append(a.Roots, s)
				continue
			}
			if parent := span(ev.Parent); parent == nil {
				a.Roots = append(a.Roots, s)
			} else {
				parent.Items = append(parent.Items, Item{Child: s})
				parent.children = append(parent.children, s)
			}
		case TypeSpanEnd:
			if s := span(ev.Span); s != nil {
				s.End = ev.T
				s.closed = true
			}
		case TypeHop, TypeBroadcast:
			s := span(ev.Span)
			frames := uint64(ev.Frames)
			lost := uint64(0)
			if ev.Lost {
				lost = frames
			}
			if ev.Type == TypeBroadcast {
				// Per-receiver drops: each missed reception counts once.
				lost += frames * uint64(ev.NLost)
			}
			kt := &kinds[ev.Kind]
			kt.seen = true
			kt.Frames += frames
			kt.Bytes += uint64(ev.Bytes)
			kt.Lost += lost
			node(ev.From).Tx += frames
			if ev.Type == TypeHop && !ev.Lost {
				node(ev.To).Rx += frames
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
				s.Items = append(s.Items, Item{Record: ev})
			}
		}
	}
	for id := range kinds {
		if kinds[id].seen {
			a.ByKind[log.tab.kinds[id]] = kinds[id].KindTotals
		}
	}
	// Spans whose end was evicted or never reached extend to the horizon
	// so their duration still bounds the work they cover.
	for _, s := range a.ByID {
		if !s.closed && a.Horizon > s.End {
			s.End = a.Horizon
			a.Truncated = true
		}
	}
	return a, nil
}

// RootsByOp returns the top-level spans of one operation, in start order.
func (a *Analysis) RootsByOp(op Op) []*Span {
	var out []*Span
	for _, s := range a.Roots {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// HopHistogram collects the total hop count of every top-level span of
// one operation — the per-operation message-cost distribution.
func (a *Analysis) HopHistogram(op Op) *stats.IntHistogram {
	h := stats.NewIntHistogram()
	for _, s := range a.RootsByOp(op) {
		h.Add(int64(s.Hops()))
	}
	return h
}

// DurationHistogram collects the virtual-time duration, in milliseconds,
// of every top-level span of one operation. All zero when the trace was
// recorded without a scheduler.
func (a *Analysis) DurationHistogram(op Op) *stats.IntHistogram {
	h := stats.NewIntHistogram()
	for _, s := range a.RootsByOp(op) {
		h.Add(s.Duration().Milliseconds())
	}
	return h
}

// Kinds returns the traffic classes seen, sorted by name.
func (a *Analysis) Kinds() []string {
	out := make([]string, 0, len(a.ByKind))
	for k := range a.ByKind {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalFrames returns the frame total across all kinds.
func (a *Analysis) TotalFrames() uint64 {
	var t uint64
	for _, kt := range a.ByKind {
		t += kt.Frames
	}
	return t
}

// NodeRanking returns per-node loads sorted by total descending, node id
// ascending on ties.
func (a *Analysis) NodeRanking() []NodeTotals {
	out := make([]NodeTotals, 0, len(a.Nodes))
	for _, n := range a.Nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// WriteTree renders the span and its descendants as an indented tree:
// one line per span with its hop totals, one line per semantic record.
func (s *Span) WriteTree(w io.Writer) error {
	return s.writeTree(w, "")
}

func (s *Span) writeTree(w io.Writer, indent string) error {
	line := fmt.Sprintf("%s%s#%d", indent, s.Op, s.ID)
	if s.Detail != "" {
		line += " " + s.Detail
	}
	line += fmt.Sprintf(" node=%d hops=%d", s.Node, s.Hops())
	if lost := s.Lost(); lost > 0 {
		line += fmt.Sprintf(" lost=%d", lost)
	}
	if d := s.Duration(); d > 0 {
		line += fmt.Sprintf(" t=%v", d)
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, it := range s.Items {
		if it.Child != nil {
			if err := it.Child.writeTree(w, indent+"  "); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintln(w, indent+"  "+formatRecord(it.Record, s.log.Detail(it.Record))); err != nil {
			return err
		}
	}
	return nil
}

// formatRecord renders one semantic record for the tree view.
func formatRecord(ev *Record, detail string) string {
	withDetail := func(verb, counted string) string {
		line := verb
		if detail != "" {
			line += " " + detail
		}
		line += fmt.Sprintf(" node=%d", ev.Node)
		if counted != "" {
			line += fmt.Sprintf(" %s=%d", counted, ev.N)
		}
		return line
	}
	switch ev.Type {
	case TypePlace:
		return withDetail("place", "")
	case TypeFanout:
		return withDetail("fanout", "cells")
	case TypeResolve:
		return withDetail("resolve", "matches")
	case TypeReply:
		return withDetail("reply", "events")
	case TypeNotify:
		return fmt.Sprintf("notify sink=%d", ev.Node)
	case TypeFault:
		return fmt.Sprintf("fault node=%d", ev.Node)
	default:
		return withDetail(ev.Type.String(), "n")
	}
}
