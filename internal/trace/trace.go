// Package trace records structured, causally-grouped events from a
// simulation run: per-hop radio transmissions, insertion placements,
// splitter fan-outs, cell resolves, reply aggregations, continuous-query
// pushes, and fault injections. Events carry virtual timestamps from the
// discrete-event clock and are organized into spans — one span per
// top-level operation (insert, query, subscribe, node failure), with
// sub-spans for per-Pool fan-out — so a trace can be replayed into the
// exact hop tree a query induced.
//
// A nil *Tracer is the disabled tracer: every method is a guarded no-op,
// so instrumented hot paths (network.Transmit in particular) pay only a
// nil pointer compare when tracing is off. Instrumentation sites that
// compute event details (fmt.Sprintf of cell ids and the like) must guard
// with Enabled so disabled runs never pay for formatting.
package trace

import (
	"fmt"
	"time"
)

// Type classifies trace events.
type Type int

// Event types.
const (
	// TypeSpanStart opens a span (Op, Node, Parent are set).
	TypeSpanStart Type = iota + 1
	// TypeSpanEnd closes the span.
	TypeSpanEnd
	// TypeHop is one per-hop radio transmission (From, To, Kind, Bytes,
	// Frames; Lost marks frames dropped by the lossy-link model).
	TypeHop
	// TypeBroadcast is one local broadcast (From, Kind, Bytes, Frames; N
	// is the number of neighbours reached).
	TypeBroadcast
	// TypePlace is an insertion placement decision: Node is the index
	// node (or zone owner) chosen, Detail names the cell or zone.
	TypePlace
	// TypeFanout is a splitter (or dissemination) fan-out: Node is the
	// splitter, N the number of cells (or zones) addressed.
	TypeFanout
	// TypeResolve is one cell/zone resolve: Node is the index node
	// scanned, N the number of matching events.
	TypeResolve
	// TypeReply is a reply aggregation: Node is the aggregating node, N
	// the number of events carried back.
	TypeReply
	// TypeNotify is one continuous-query push: Node is the notified sink.
	TypeNotify
	// TypeFault is a fault injection: Node is the failed node. Detail
	// "crash" marks the instant a node's radio goes dead, "recover" the
	// instant it rejoins — the boundaries latency attribution uses to
	// build repair-interference windows.
	TypeFault
	// TypeWait marks an operation entering a service or station queue:
	// Node is the queueing node, N the queue depth behind it.
	TypeWait
	// TypeServe marks the matching service start (the instant the node
	// actually begins work); the Wait→Serve gap is pure queueing delay.
	TypeServe
	// TypeRepair marks repair-protocol progress on Node; Detail "done"
	// closes the node's repair-interference window.
	TypeRepair
)

// typeNames maps Type values to their wire names.
var typeNames = map[Type]string{
	TypeSpanStart: "span_start",
	TypeSpanEnd:   "span_end",
	TypeHop:       "hop",
	TypeBroadcast: "broadcast",
	TypePlace:     "place",
	TypeFanout:    "fanout",
	TypeResolve:   "resolve",
	TypeReply:     "reply",
	TypeNotify:    "notify",
	TypeFault:     "fault",
	TypeWait:      "wait",
	TypeServe:     "serve",
	TypeRepair:    "repair",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// TypeFromString parses a wire name back into a Type.
func TypeFromString(s string) (Type, error) {
	for t, name := range typeNames {
		if name == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event type %q", s)
}

// Op names the operation a span covers.
type Op string

// Span operations.
const (
	OpInsert      Op = "insert"
	OpQuery       Op = "query"
	OpFanout      Op = "fanout" // per-Pool sub-span of a query
	OpSubscribe   Op = "subscribe"
	OpUnsubscribe Op = "unsubscribe"
	OpFail        Op = "fail"
	// OpRetry is a recovery detour sub-span: an alternate-splitter
	// re-plan, a mirror failover, or a reply re-send. Time spent inside
	// an OpRetry subtree is attributed to the retry phase.
	OpRetry Op = "retry"
)

// Event is one trace record. Node fields not applicable to the event type
// hold -1.
type Event struct {
	// T is the virtual timestamp (zero when the run has no scheduler).
	T time.Duration `json:"t"`
	// Span is the id of the owning span; 0 marks background traffic
	// recorded outside any span.
	Span uint64 `json:"span,omitempty"`
	// Type discriminates the record.
	Type Type `json:"type"`
	// Op is the span operation (span_start only).
	Op Op `json:"op,omitempty"`
	// Parent is the enclosing span id (span_start only).
	Parent uint64 `json:"parent,omitempty"`
	// From and To are the hop endpoints (hop and broadcast records).
	From int `json:"from"`
	To   int `json:"to"`
	// Kind is the traffic class of a hop (network.Kind.String()).
	Kind string `json:"kind,omitempty"`
	// Bytes and Frames are the payload size and frame count of a hop.
	Bytes  int `json:"bytes,omitempty"`
	Frames int `json:"frames,omitempty"`
	// Lost marks a hop dropped by the lossy-link model.
	Lost bool `json:"lost,omitempty"`
	// NLost is the number of receivers a broadcast frame failed to reach
	// under the lossy-link model (broadcast records only).
	NLost int `json:"nlost,omitempty"`
	// Node is the acting node of a semantic event.
	Node int `json:"node"`
	// N is a generic count: cells fanned out to, events matched, events
	// aggregated, neighbours reached.
	N int `json:"n,omitempty"`
	// Detail is a short human-readable qualifier (cell id, pool, zone).
	Detail string `json:"detail,omitempty"`
}

// Clock supplies virtual timestamps; *sim.Scheduler implements it. A nil
// Clock pins every timestamp to zero.
type Clock interface {
	Now() time.Duration
}

// Tracer accumulates events in memory. The zero-cost disabled tracer is
// the nil pointer; construct enabled tracers with New.
type Tracer struct {
	clock  Clock
	events []Event // the unbounded tracer's store
	stack  []uint64
	nextID uint64

	// limit > 0 makes the tracer a fixed-capacity flight recorder (see
	// NewRing). Its n events live in chunks of ringChunk slots, allocated
	// as the ring fills, so growing never copies what is already recorded
	// and a ring that stays short never pays for its capacity. Once
	// n == limit, head is the ring's oldest slot and every append
	// overwrites it.
	limit   int
	chunks  [][]Event
	n       int
	head    int
	dropped uint64
}

// ringChunk is the number of events per ring chunk (a power of two; about
// 600 KB of events).
const ringChunk = 1 << 12

// slot returns ring slot i.
func (t *Tracer) slot(i int) *Event { return &t.chunks[i/ringChunk][i%ringChunk] }

// New returns an enabled Tracer stamping events from clock (nil clock:
// all timestamps zero).
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// NewRing returns an enabled Tracer that keeps only the most recent
// capacity events — an always-on flight recorder whose memory is bounded
// regardless of run length. Once full, each append evicts the oldest
// event and increments Dropped. Evicted traces analyze fine: Analyze
// tolerates the resulting unbalanced streams and flags them Truncated.
// capacity < 1 is treated as 1.
func NewRing(clock Clock, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{clock: clock, limit: capacity}
}

// emit appends one event, evicting the oldest when the tracer is a full
// ring.
func (t *Tracer) emit(ev Event) {
	switch {
	case t.limit == 0:
		t.events = append(t.events, ev)
	case t.n == t.limit:
		*t.slot(t.head) = ev
		t.head++
		if t.head == t.limit {
			t.head = 0
		}
		t.dropped++
	default:
		if t.n == len(t.chunks)*ringChunk {
			t.chunks = append(t.chunks, make([]Event, min(ringChunk, t.limit-t.n)))
		}
		*t.slot(t.n) = ev
		t.n++
	}
}

// Capacity returns the ring capacity, or 0 for an unbounded tracer.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.limit
}

// Dropped returns the number of events evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// current returns the innermost open span id, or 0.
func (t *Tracer) current() uint64 {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// Begin opens a span for op at node (detail optional) nested under the
// currently open span, and returns its id. On the nil tracer it returns 0.
func (t *Tracer) Begin(op Op, node int, detail string) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	id := t.nextID
	t.emit(Event{
		T: t.now(), Span: id, Type: TypeSpanStart, Op: op,
		Parent: t.current(), From: -1, To: -1, Node: node, Detail: detail,
	})
	t.stack = append(t.stack, id)
	return id
}

// BeginAt opens a span for op at node as a child of parent, without
// touching the ambient span stack. It is the span opener for operations
// whose lifetime extends across scheduler callbacks (actor-engine
// queries, load-harness operations): the caller keeps the id, brackets
// each callback with PushSpan/PopSpan, and closes with EndSpan. On the
// nil tracer it returns 0.
func (t *Tracer) BeginAt(parent uint64, op Op, node int, detail string) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	id := t.nextID
	t.emit(Event{
		T: t.now(), Span: id, Type: TypeSpanStart, Op: op,
		Parent: parent, From: -1, To: -1, Node: node, Detail: detail,
	})
	return id
}

// EndSpan closes span id at the current clock, regardless of the span
// stack. EndSpan of 0 is a no-op.
func (t *Tracer) EndSpan(id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.emit(Event{
		T: t.now(), Span: id, Type: TypeSpanEnd, From: -1, To: -1, Node: -1,
	})
}

// PushSpan makes id the ambient span for subsequently recorded events.
// Balance with PopSpan. No-op on the nil tracer.
func (t *Tracer) PushSpan(id uint64) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, id)
}

// PopSpan undoes the innermost PushSpan (or Begin). Unbalanced calls are
// no-ops.
func (t *Tracer) PopSpan() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// CurrentSpan returns the innermost ambient span id, or 0.
func (t *Tracer) CurrentSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.current()
}

// End closes the innermost open span. Unbalanced End calls are no-ops.
func (t *Tracer) End() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.emit(Event{
		T: t.now(), Span: id, Type: TypeSpanEnd, From: -1, To: -1, Node: -1,
	})
}

// Hop records one per-hop transmission under the current span.
func (t *Tracer) Hop(from, to int, kind string, bytes, frames int, lost bool) {
	if t == nil {
		return
	}
	t.emit(Event{
		T: t.now(), Span: t.current(), Type: TypeHop,
		From: from, To: to, Kind: kind, Bytes: bytes, Frames: frames,
		Lost: lost, Node: -1,
	})
}

// Broadcast records one local broadcast reaching n neighbours; lost
// counts the receivers the frame was dropped on by the lossy-link model.
func (t *Tracer) Broadcast(from int, kind string, bytes, frames, n, lost int) {
	if t == nil {
		return
	}
	t.emit(Event{
		T: t.now(), Span: t.current(), Type: TypeBroadcast,
		From: from, To: -1, Kind: kind, Bytes: bytes, Frames: frames,
		Node: -1, N: n, NLost: lost,
	})
}

// Record appends a semantic event (placement, fan-out, resolve, reply,
// notify, fault) under the current span.
func (t *Tracer) Record(typ Type, node, n int, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{
		T: t.now(), Span: t.current(), Type: typ,
		From: -1, To: -1, Node: node, N: n, Detail: detail,
	})
}

// RecordAt is Record with an explicit timestamp. It lets an
// instrumentation site stamp an event at a known virtual time (a service
// start computed from a busy-until watermark) without scheduling a
// callback for the sole purpose of recording it — keeping traced and
// untraced runs byte-identical in event order. Consumers must not assume
// the event slice is sorted by T.
func (t *Tracer) RecordAt(at time.Duration, typ Type, node, n int, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{
		T: at, Span: t.current(), Type: typ,
		From: -1, To: -1, Node: node, N: n, Detail: detail,
	})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events) + t.n
}

// Events returns the recorded events in append order. The slice is owned
// by the tracer; callers must not mutate it. A ring allocates a fresh
// ordered copy (oldest surviving event first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.limit == 0 {
		return t.events
	}
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, *t.slot((t.head + i) % t.n))
	}
	return out
}

// Reset drops all recorded events and open spans, keeping the clock and
// ring capacity.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.events = t.events[:0]
	t.stack = t.stack[:0]
	t.nextID = 0
	t.n = 0
	t.head = 0
	t.dropped = 0
}
