// The query path: one range query is an operation, one gather per
// relevant Pool and one leg per relevant cell, each a record in an engine
// arena that is stepped when the exchange it has on the air settles.
//
//	sink ──query──▶ splitter ──query──▶ cell      gather: stageSplitter, leg: stageCell
//	sink ◀──reply── splitter ◀──reply── cell      gather: stageSink,     leg: stageReply
//
// Nothing on this path is captured by a closure: a record holds what the
// next step needs, querySettled is the one place the retry policy lives,
// and a record goes back to its arena the moment its last exchange has
// settled — before any user callback, because callbacks re-enter the
// engine.
package node

import (
	"fmt"
	"slices"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/trace"
)

// operation is an in-flight query. It owns its resolved plan — gathers and
// legs read the fan-out and the rewritten query from it — and a recycled
// slot keeps the plan's memory, so resolving the next query allocates
// nothing.
type operation struct {
	live bool // false on a recycled slot
	sink int
	// span is the query's trace span (0 when tracing is off).
	span uint64
	// poolsLeft is how many pool replies the sink still awaits.
	poolsLeft int
	plan      pool.Plan
	// parts are the cell snapshots whose pool reply reached the sink, in
	// arrival order, and matches their total length: the result handed to
	// onDone is their concatenation, copied once into a slice of exactly
	// that size.
	parts   [][]event.Event
	matches int
	comp    dcs.Completeness
	started time.Duration
	onDone  func(results []event.Event, comp dcs.Completeness, elapsed time.Duration)
}

// stage names the exchange a gather or a leg has on the air.
type stage uint8

const (
	stageFree     stage = iota // recycled slot: anything settling here is a bug
	stageSplitter              // gather: sink → splitter, the query
	stageCells                 // gather: its cell legs are out, nothing of its own is
	stageSink                  // gather: splitter → sink, the aggregate reply
	stageCell                  // leg: splitter → index node or mirror, the query
	stageReply                 // leg: queried node → splitter, the cell's matches
)

// exchange is what the retry rule reads and writes in a gather or a leg.
type exchange struct {
	op      int32 // the owning operation's slot
	stage   stage
	retried bool   // the exchange on the air is the stage's one retry
	retry   uint64 // the retry's span (0 untraced)
}

// gather is one Pool's share of a query: the splitter's reply-collection
// state, from the query leaving the sink to the aggregate reply landing
// back on it.
type gather struct {
	exchange
	fanout    int32 // which of the operation's plan.Fanouts
	splitter  int32
	cellsLeft int32
	// served records each reached cell with the matches the splitter holds
	// for it, so a lost aggregate reply can demote the cells whose matches
	// it carried — the same bookkeeping as the synchronous queryPool. The
	// buffer is the one thing a recycled gather keeps.
	served  []servedCell
	matches int // total over served: the aggregate reply's payload
}

// servedCell is one reached cell of a fan-out. matches is the exact-size
// snapshot the cell's reply carried; partial marks a cell served from a
// restore still streaming in, already reported unreached.
type servedCell struct {
	cell    pool.CellID
	matches []event.Event
	partial bool
}

// leg is one cell's share of a gather: the query to the cell's index node
// (or, on the retry, its mirror) and the reply back to the splitter. A
// recycled leg keeps nothing — the matches are a snapshot per cell, not a
// buffer per record, because past the saturation knee thousands of legs
// are in flight.
type leg struct {
	exchange
	gather  int32
	key     pool.Key
	index   int32 // the cell's index node when the splitter fanned out
	target  int32 // the node queried: index, or the cell's mirror on the retry
	partial bool
	matches []event.Event
}

// Query issues a range query at the sink. onDone fires when the last pool
// reply lands, with the gathered results and the elapsed virtual time.
func (e *Engine) Query(sink int, q event.Query, onDone func(results []event.Event, elapsed time.Duration)) error {
	var wrapped func([]event.Event, dcs.Completeness, time.Duration)
	if onDone != nil {
		wrapped = func(results []event.Event, _ dcs.Completeness, elapsed time.Duration) {
			onDone(results, elapsed)
		}
	}
	return e.QueryWithReport(sink, q, wrapped)
}

// QueryWithReport is Query plus a dcs.Completeness report, resolved with
// the splitter fan-out and under the failure policy of the synchronous
// pool.System.QueryWithReport (dcs.Exchange, pool.Directory.Retarget,
// pool.Demote) — but message-driven. A cell whose mirror transfer is still
// in flight after a repair serves whatever slice has arrived and is
// reported unreached — the measured completeness dips until the transfer
// converges. The results slice is the caller's: a fresh copy of exactly
// the result's size.
func (e *Engine) QueryWithReport(sink int, q event.Query, onDone func(results []event.Event, comp dcs.Completeness, elapsed time.Duration)) error {
	oi := e.ops.alloc()
	op := e.ops.at(oi)
	if err := e.Resolve(q, &op.plan); err != nil {
		e.releaseOp(oi)
		return err
	}
	op.live = true
	op.sink = sink
	op.span = e.tracer.BeginAt(e.tracer.CurrentSpan(), trace.OpQuery, sink, "")
	op.started = e.sched.Now()
	op.onDone = onDone
	e.mQueries.Inc()
	pools := len(op.plan.Fanouts)
	op.poolsLeft = pools
	op.comp.CellsTotal = op.plan.NumCells()
	if pools == 0 {
		e.sched.AfterEvent(0, e.hid, opFinish, uint64(oi), 0)
		return nil
	}
	entered := e.enter(op.span)
	for i := 0; i < pools; i++ {
		e.startPool(oi, int32(i))
	}
	e.leave(entered)
	return nil
}

// startPool launches one pool's fan-out: the query leaves the sink for
// the Pool's splitter.
func (e *Engine) startPool(oi, fanout int32) {
	op := e.ops.at(oi)
	gi := e.gathers.alloc()
	g := e.gathers.at(gi)
	g.op, g.fanout = oi, fanout
	g.splitter = int32(e.SplitterFor(op.plan.Fanouts[fanout].Pool, op.sink))
	e.launch(recGather, gi, stageSplitter)
}

// exchangeOf returns the retry state of a gather or a leg.
func (e *Engine) exchangeOf(kind recKind, rec int32) *exchange {
	if kind == recLeg {
		return &e.legs.at(rec).exchange
	}
	return &e.gathers.at(rec).exchange
}

// launch moves a record to its next exchange and puts the first attempt on
// the air.
func (e *Engine) launch(kind recKind, rec int32, st stage) {
	x := e.exchangeOf(kind, rec)
	x.stage, x.retried, x.retry = st, false, 0
	from, to, frame, size := e.hop(kind, rec)
	e.send(from, to, frame, size, kind, rec)
}

// hop returns the endpoints and the frame of the exchange a record has on
// the air.
func (e *Engine) hop(kind recKind, rec int32) (from, to int, frame network.Kind, size int) {
	dims := e.Dims()
	if kind == recGather {
		g := e.gathers.at(rec)
		sink, splitter := e.ops.at(g.op).sink, int(g.splitter)
		if g.stage == stageSplitter {
			return sink, splitter, network.KindQuery, dcs.QueryBytes(dims)
		}
		return splitter, sink, network.KindReply, dcs.ReplyBytes(dims, g.matches)
	}
	l := e.legs.at(rec)
	splitter, target := int(e.gathers.at(l.gather).splitter), int(l.target)
	if l.stage == stageCell {
		return splitter, target, network.KindQuery, dcs.QueryBytes(dims)
	}
	return target, splitter, network.KindReply, dcs.ReplyBytes(dims, len(l.matches))
}

// querySettled steps a gather or a leg whose exchange has settled, and is
// the query path's retry rule, stated once: an exchange that is lost is
// re-sent once, under a retry span, to wherever retarget points it; lost
// again, or with nowhere to go, the record gives up. Whatever follows a
// retry runs back under the operation's span.
func (e *Engine) querySettled(kind recKind, rec int32, err error) {
	x := e.exchangeOf(kind, rec)
	if x.stage == stageFree || x.stage == stageCells {
		panic(fmt.Sprintf("node: exchange settled on record %d/%d, which has none on the air", kind, rec))
	}
	op := e.ops.at(x.op)
	switch {
	case x.retried:
		e.tracer.EndSpan(x.retry)
		entered := e.enter(op.span)
		e.advance(x.stage, rec, err == nil)
		e.leave(entered)
	case err == nil:
		e.advance(x.stage, rec, true)
	default:
		label, ok := e.retarget(x.stage, rec)
		if !ok {
			e.advance(x.stage, rec, false)
			return
		}
		op.comp.Retries++
		from, to, frame, size := e.hop(kind, rec)
		x.retried = true
		x.retry = e.tracer.BeginAt(op.span, trace.OpRetry, from, label)
		entered := e.enter(x.retry)
		e.send(from, to, frame, size, kind, rec)
		e.leave(entered)
	}
}

// retarget points a record's lost exchange at where pool.Directory.Retarget
// sends its retry and names the retry for the trace; false when there is
// nowhere to retry.
func (e *Engine) retarget(st stage, rec int32) (label string, ok bool) {
	switch st {
	case stageSplitter:
		g := e.gathers.at(rec)
		op := e.ops.at(g.op)
		key := pool.Key{Dim: op.plan.Fanouts[g.fanout].Pool.Dim}
		alt, label := e.Retarget(pool.StageSplitter, key, op.sink, int(g.splitter))
		if alt < 0 {
			return "", false
		}
		g.splitter = int32(alt)
		return label, true
	case stageCell:
		l := e.legs.at(rec)
		to, label := e.Retarget(pool.StageCell, l.key, e.ops.at(l.op).sink, int(l.index))
		l.target = int32(to)
		return label, true
	default:
		_, label := e.Retarget(pool.StageReply, pool.Key{}, -1, -1)
		return label, true
	}
}

// advance moves a record past an exchange that landed, or that is lost for
// good.
func (e *Engine) advance(st stage, rec int32, landed bool) {
	switch {
	case st == stageSplitter && landed:
		e.runSplitter(rec)
	case st == stageSplitter:
		e.poolUnreached(rec)
	case st == stageCell && landed:
		e.serveCell(rec)
	case st == stageReply && landed:
		e.cellServed(rec)
	case st == stageCell || st == stageReply:
		e.cellUnreached(rec)
	case st == stageSink && landed:
		e.poolLanded(rec)
	case st == stageSink:
		e.poolDemoted(rec)
	}
}

// runSplitter executes the splitter role: fan the query out to every
// relevant cell and gather one reply (possibly empty — the ack that makes
// completion detectable) from each.
func (e *Engine) runSplitter(gi int32) {
	g := e.gathers.at(gi)
	f := &e.ops.at(g.op).plan.Fanouts[g.fanout]
	g.stage = stageCells
	g.cellsLeft = int32(len(f.Cells))
	g.served = slices.Grow(g.served, len(f.Cells))
	oi, dim := g.op, f.Pool.Dim
	for _, c := range f.Cells {
		index := int32(e.IndexNode(c))
		li := e.legs.alloc()
		*e.legs.at(li) = leg{
			exchange: exchange{op: oi},
			gather:   gi,
			key:      pool.Key{Dim: dim, Cell: c},
			index:    index,
			target:   index,
		}
		e.launch(recLeg, li, stageCell)
	}
}

// serveCell runs at the queried node: filter the store (or the mirror
// copy) and start the reply back to the splitter. A cell whose restore
// transfer is still streaming serves its partial slice but is reported
// unreached (degraded completeness).
func (e *Engine) serveCell(li int32) {
	l := e.legs.at(li)
	var held []event.Event
	if l.target != l.index {
		held = e.MirrorCopy(l.key)
	} else {
		held, l.partial = e.Held(l.key, int(l.target)), e.transferring[l.key]
	}
	e.matchBuf = e.ops.at(l.op).plan.Query.AppendMatches(e.matchBuf[:0], held)
	l.matches = event.CloneEvents(e.matchBuf)
	e.launch(recLeg, li, stageReply)
}

// cellServed lands one cell's reply at the splitter.
func (e *Engine) cellServed(li int32) {
	l := *e.legs.at(li)
	e.legs.release(li, leg{})
	g := e.gathers.at(l.gather)
	g.matches += len(l.matches)
	g.served = append(g.served, servedCell{cell: l.key.Cell, matches: l.matches, partial: l.partial})
	if l.partial {
		e.unreached(l.op, l.key.Dim, l.key.Cell)
	}
	e.cellDone(l.gather)
}

// cellUnreached records one cell lost through the retry policy.
func (e *Engine) cellUnreached(li int32) {
	l := *e.legs.at(li)
	e.legs.release(li, leg{})
	e.unreached(l.op, l.key.Dim, l.key.Cell)
	e.cellDone(l.gather)
}

// unreached reports a cell of the operation's fan-out unserved.
func (e *Engine) unreached(oi int32, dim int, c pool.CellID) {
	comp := &e.ops.at(oi).comp
	comp.Unreached = append(comp.Unreached, pool.CellLabel(dim, c))
}

// cellDone retires one leg of a gather; the last one sends the splitter's
// aggregate reply to the sink.
func (e *Engine) cellDone(gi int32) {
	g := e.gathers.at(gi)
	g.cellsLeft--
	if g.cellsLeft == 0 {
		e.launch(recGather, gi, stageSink)
	}
}

// poolLanded merges one pool's aggregate reply at the sink.
func (e *Engine) poolLanded(gi int32) {
	g := e.gathers.at(gi)
	op := e.ops.at(g.op)
	// The merge marker: from here to span end the sink is folding pool
	// replies together.
	e.tracer.Record(trace.TypeReply, op.sink, g.matches, "")
	for _, sc := range g.served {
		if !sc.partial {
			op.comp.CellsReached++
		}
		if len(sc.matches) > 0 {
			op.parts = append(op.parts, sc.matches)
		}
	}
	op.matches += g.matches
	e.poolDone(gi)
}

// poolDemoted gives up on a pool's aggregate reply: pool.Demote settles
// every served cell that has not been reported unreached already.
func (e *Engine) poolDemoted(gi int32) {
	g := e.gathers.at(gi)
	op := e.ops.at(g.op)
	dim := op.plan.Fanouts[g.fanout].Pool.Dim
	for _, sc := range g.served {
		if !sc.partial {
			pool.Demote(&op.comp, dim, sc.cell, len(sc.matches))
		}
	}
	e.poolDone(gi)
}

// poolUnreached abandons a whole pool's fan-out: every relevant cell goes
// unreached.
func (e *Engine) poolUnreached(gi int32) {
	g := e.gathers.at(gi)
	f := &e.ops.at(g.op).plan.Fanouts[g.fanout]
	for _, c := range f.Cells {
		e.unreached(g.op, f.Pool.Dim, c)
	}
	e.poolDone(gi)
}

// poolDone recycles a gather and retires its pool from the operation,
// finishing the operation when it was the last.
func (e *Engine) poolDone(gi int32) {
	g := e.gathers.at(gi)
	oi := g.op
	clear(g.served)
	e.gathers.release(gi, gather{served: g.served[:0]})
	op := e.ops.at(oi)
	op.poolsLeft--
	if op.poolsLeft == 0 {
		e.finish(oi)
	}
}

// finish completes an operation: its span closes, its slot is recycled,
// and only then does the caller hear — with a result that is its own.
func (e *Engine) finish(oi int32) {
	op := e.ops.at(oi)
	if !op.live {
		panic(fmt.Sprintf("node: operation %d finished twice", oi))
	}
	e.tracer.EndSpan(op.span)
	onDone, comp, elapsed := op.onDone, op.comp, e.sched.Now()-op.started
	var results []event.Event
	if onDone != nil && op.matches > 0 {
		results = make([]event.Event, 0, op.matches)
		for _, part := range op.parts {
			results = append(results, part...)
		}
	}
	e.releaseOp(oi)
	if onDone != nil {
		onDone(results, comp, elapsed)
	}
}

// releaseOp recycles an operation slot, keeping the plan's memory and the
// parts buffer.
func (e *Engine) releaseOp(oi int32) {
	op := e.ops.at(oi)
	clear(op.parts)
	e.ops.release(oi, operation{plan: op.plan, parts: op.parts[:0]})
}

// SplittersFor returns the distinct splitter nodes that would serve q
// issued from sink, in pool-dimension order. Empty when no pool is
// relevant to q. The slice is the engine's scratch: valid until the next
// SplittersFor call.
func (e *Engine) SplittersFor(sink int, q event.Query) []int {
	if e.Resolve(q, &e.splittersPlan) != nil {
		return nil
	}
	out := e.splittersBuf[:0]
	for _, f := range e.splittersPlan.Fanouts {
		if s := e.SplitterFor(f.Pool, sink); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	e.splittersBuf = out
	return out
}
