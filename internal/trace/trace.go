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

// Type classifies trace events. It is one byte wide because the stored
// record keeps it in one.
type Type uint8

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

// Event is one trace record in its wire form: what WriteJSONL writes,
// ReadJSONL reads and Log.Slice returns. A Tracer does not store Events;
// it stores Records (record.go). Node fields not applicable to the event
// type hold -1.
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

// Tracer accumulates records in memory. The zero-cost disabled tracer is
// the nil pointer; construct enabled tracers with New.
type Tracer struct {
	clock  Clock
	tab    *strtab
	stack  []uint64
	nextID uint64

	// The n records live in chunks of ringChunk slots, allocated as the
	// store fills, so growing never copies what is already recorded and
	// a ring that stays short never pays for its capacity. limit > 0
	// makes the tracer a fixed-capacity flight recorder (see NewRing):
	// once n == limit, head is the ring's oldest slot and every append
	// overwrites it. A tracer from New has no limit.
	limit   int
	chunks  [][]Record
	n       int
	head    int
	dropped uint64
}

// ringChunk is the number of records per chunk (a power of two;
// 256 KB of pointer-free records, which the collector never scans).
const ringChunk = 1 << 12

// New returns an enabled Tracer stamping events from clock (nil clock:
// all timestamps zero).
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock, tab: newStrtab()}
}

// NewRing returns an enabled Tracer that keeps only the most recent
// capacity events — an always-on flight recorder whose memory is bounded
// regardless of run length (64 bytes per event plus the string table).
// Once full, each append evicts the oldest event and increments Dropped.
// Evicted traces analyze fine: Analyze tolerates the resulting unbalanced
// streams and flags them Truncated. capacity < 1 is treated as 1.
func NewRing(clock Clock, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{clock: clock, tab: newStrtab(), limit: capacity}
}

// put claims the slot of the next record — evicting the oldest when the
// tracer is a full ring — and fills in what every record has; the caller
// writes the remaining fields through the returned pointer, so no record
// is built elsewhere and copied in.
func (t *Tracer) put(at time.Duration, typ Type, span uint64) *Record {
	var r *Record
	if t.n == t.limit && t.limit > 0 {
		r = &t.chunks[t.head/ringChunk][t.head%ringChunk]
		t.head++
		if t.head == t.limit {
			t.head = 0
		}
		t.dropped++
	} else {
		if t.n == len(t.chunks)*ringChunk {
			size := ringChunk
			if t.limit > 0 {
				size = min(size, t.limit-t.n)
			}
			t.chunks = append(t.chunks, make([]Record, size))
		}
		r = &t.chunks[t.n/ringChunk][t.n%ringChunk]
		t.n++
	}
	*r = Record{T: at, Span: span, Type: typ, From: -1, To: -1, Node: -1}
	return r
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

// begin records the start of a new span under parent and returns its id.
func (t *Tracer) begin(parent uint64, op Op, node int, detail string) uint64 {
	t.nextID++
	id := t.nextID
	r := t.put(t.now(), TypeSpanStart, id)
	r.Op = t.tab.op(op)
	r.Parent = parent
	r.Node = t.tab.i32(node)
	r.Detail = t.tab.detail(detail)
	return id
}

// Begin opens a span for op at node (detail optional) nested under the
// currently open span, and returns its id. On the nil tracer it returns 0.
func (t *Tracer) Begin(op Op, node int, detail string) uint64 {
	if t == nil {
		return 0
	}
	id := t.begin(t.current(), op, node, detail)
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
	return t.begin(parent, op, node, detail)
}

// EndSpan closes span id at the current clock, regardless of the span
// stack. EndSpan of 0 is a no-op.
func (t *Tracer) EndSpan(id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.put(t.now(), TypeSpanEnd, id)
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
	t.put(t.now(), TypeSpanEnd, id)
}

// Hop records one per-hop transmission under the current span.
func (t *Tracer) Hop(from, to int, kind string, bytes, frames int, lost bool) {
	if t == nil {
		return
	}
	r := t.put(t.now(), TypeHop, t.current())
	r.From, r.To = t.tab.i32(from), t.tab.i32(to)
	r.Kind = t.tab.kind(kind)
	r.Bytes, r.Frames = t.tab.i32(bytes), t.tab.i32(frames)
	r.Lost = lost
}

// Broadcast records one local broadcast reaching n neighbours; lost
// counts the receivers the frame was dropped on by the lossy-link model.
func (t *Tracer) Broadcast(from int, kind string, bytes, frames, n, lost int) {
	if t == nil {
		return
	}
	r := t.put(t.now(), TypeBroadcast, t.current())
	r.From = t.tab.i32(from)
	r.Kind = t.tab.kind(kind)
	r.Bytes, r.Frames = t.tab.i32(bytes), t.tab.i32(frames)
	r.N, r.NLost = t.tab.i32(n), t.tab.i32(lost)
}

// Record appends a semantic event (placement, fan-out, resolve, reply,
// notify, fault) under the current span.
func (t *Tracer) Record(typ Type, node, n int, detail string) {
	if t == nil {
		return
	}
	t.RecordAt(t.now(), typ, node, n, detail)
}

// RecordAt is Record with an explicit timestamp. It lets an
// instrumentation site stamp an event at a known virtual time (a service
// start computed from a busy-until watermark) without scheduling a
// callback for the sole purpose of recording it — keeping traced and
// untraced runs byte-identical in event order. Consumers must not assume
// the log is sorted by T.
func (t *Tracer) RecordAt(at time.Duration, typ Type, node, n int, detail string) {
	if t == nil {
		return
	}
	r := t.put(at, typ, t.current())
	r.Node, r.N = t.tab.i32(node), t.tab.i32(n)
	r.Detail = t.tab.detail(detail)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Events returns a read-only view of the recorded events in append order
// (a ring's oldest surviving event first). The view aliases the tracer's
// storage — nothing is copied, not even a ring — so it is valid only
// until the tracer records again or is Reset; call Slice on it for
// events that must outlive that. The nil tracer returns the empty Log.
func (t *Tracer) Events() Log {
	if t == nil {
		return Log{}
	}
	return Log{tab: t.tab, chunks: t.chunks, head: t.head, n: t.n}
}

// Reset drops all recorded events, open spans and the string table,
// keeping the clock and ring capacity. Views taken before are invalid.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.tab = newStrtab()
	t.stack = t.stack[:0]
	t.nextID = 0
	t.n = 0
	t.head = 0
	t.dropped = 0
}
