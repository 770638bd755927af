// Message-driven fault repair: the actor engine's executor of the repair
// plan, pool.Repair, which decides every move; pool.System.FailNode
// executes the same plan in zero time. Once a repair has drained, both hold
// the same holders, stores and mirrors by construction (the systemtest
// equivalence suite checks it); inside one repair window they may differ,
// because a second crash can land while the first repair is on the air.
// What this file adds is how the plan's steps travel, as multi-hop
// network.KindControl exchanges that compete with live queries for the
// radio:
//
//  1. Election: the alive node closest to the victim, the initiator, tells
//     each planned candidate its cell's holder is dead (repairSuspect); the
//     candidate claims the role (repairClaim) and is granted it
//     (repairGrant), which flips the cell's holder.
//  2. Restore, at the grant: the new holder pulls each planned copy
//     (repairPull, then stop-and-wait repairChunk / repairChunkAck rounds),
//     or adopts its own copy when it is the mirror. Until the last chunk
//     lands the cell serves its partial slice and is reported unreached.
//  3. Re-home: the new mirror is announced (repairMirror) and the copy
//     streamed in the same rounds; a cell still re-electing waits for its
//     grant.
//
// A leg lost to a further failure abandons its task: an election re-plans
// its cell, a transfer keeps what landed. The next FailNode call re-plans
// any cell still held by a dead node, so cascades self-heal.
package node

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
)

// repairChunkEvents bounds one state-transfer chunk: small enough that a
// restore occupies the radio across many exchanges instead of one bulk
// copy.
const repairChunkEvents = 8

// electRetryBudget bounds how many times an aborted re-election is
// re-planned before the cell is left stalled for the next FailNode
// call. Each retry burns a full ARQ timeout, so the budget keeps a
// cell whose exchanges keep dying through an undetected-dead relay
// from spinning until the failure detector catches up.
const electRetryBudget = 8

// repairKind discriminates repair-protocol packets.
type repairKind uint8

const (
	repairSuspect  repairKind = iota + 1 // initiator → candidate: your cell's holder is dead
	repairClaim                          // candidate → initiator: I claim the index role
	repairGrant                          // initiator → candidate: role granted, pull state
	repairPull                           // new holder → mirror: stream me the cell copy
	repairChunk                          // transfer source → dest: one chunk of events
	repairChunkAck                       // dest → source: chunk received, send the next
	repairMirror                         // primary → new mirror: take the cell's mirror copy
)

// repairPacket is one repair-protocol message: an explicit value
// dispatched through handleRepair — so duplicated, reordered, and
// malformed packets can be injected directly (see FuzzRepairPackets).
type repairPacket struct {
	kind   repairKind
	from   int
	to     int
	key    pool.Key
	mirror bool          // the transfer is a re-home, not a restore
	seq    int           // chunk ordinal for repairChunk/repairChunkAck
	last   bool          // final-chunk marker
	events []event.Event // chunk payload
}

// repairSend is a repair packet on the air, and the task to abandon if it
// is lost.
type repairSend struct {
	pkt  repairPacket
	task repairTask
}

// repairTask is what a repair packet travels for: a cell's re-election or
// a cell copy's transfer. A lost packet abandons its task.
type repairTask interface {
	aborted(e *Engine)
}

func (t *electTask) aborted(e *Engine) { e.electAborted(t) }
func (t *xferTask) aborted(e *Engine)  { e.xferEnd(t, false) }

// repairRun tracks one victim's repair from suspicion to convergence.
type repairRun struct {
	plan    *pool.Repair
	started time.Duration
	pending int // open tasks: elections, transfers, re-homes
}

// electTask is one planned Election in flight between the initiator and
// the candidate, To.
type electTask struct {
	pool.Election
	run       *repairRun
	initiator int
	claimed   bool
	retries   int // re-plans consumed after aborted exchanges
	// rehomes lists keys whose mirror re-home waits for this cell's new
	// holder to be in place, so that it copies from the new holder.
	rehomes []pool.Key
}

// xferTask is one planned Transfer streaming between two nodes: a restore,
// whose new holder lands chunks as they arrive, or a re-home (toMirror),
// whose new mirror adopts the copy wholesale once it has landed.
type xferTask struct {
	pool.Transfer
	run      *repairRun
	toMirror bool
	chunks   [][]event.Event
	sendNext int // next chunk ordinal the source will emit
	recvNext int // next chunk ordinal the destination expects
}

// RepairsInFlight returns the number of crashed nodes whose repair
// exchanges have not yet converged.
func (e *Engine) RepairsInFlight() int { return len(e.repairs) }

// RepairLatency returns the crash-to-convergence latency histogram
// (milliseconds), one sample per repair that had work to do.
func (e *Engine) RepairLatency() *stats.IntHistogram { return e.repairHist }

// RepairTraffic returns the cumulative repair-protocol spend: packets
// sent and payload bytes shipped by suspicion, election, and transfer
// exchanges — the control-plane cost of every repair so far, separable
// from beacons and queries sharing KindControl on the radio.
func (e *Engine) RepairTraffic() (msgs, bytes uint64) { return e.repairMsgs, e.repairBytes }

// QueryDegraded reports whether q would, right now, address a cell still
// under repair: among the query's relevant cells, some holder is dead —
// by the engine's own knowledge or by the caller's oracle (down), which
// lets an experiment with global knowledge include the undetected window
// between a crash and the beacon timeout that reveals it — or a
// re-election, a restore or a mirror re-home is still in flight. Such a
// query pays the repair: failure detection on a dead leg, the mirror
// fallback, and service-queue contention with transfer chunks.
func (e *Engine) QueryDegraded(q event.Query, down func(int) bool) bool {
	var plan pool.Plan
	if e.Resolve(q, &plan) != nil {
		return false
	}
	for _, f := range plan.Fanouts {
		for _, c := range f.Cells {
			if e.elects[c] != nil || e.moving(pool.Key{Dim: f.Pool.Dim, Cell: c}) {
				return true
			}
			h := e.IndexNode(c)
			if e.Failed(h) || (down != nil && down(h)) {
				return true
			}
		}
	}
	return false
}

// moving reports whether a restore or a re-home of key is in flight.
func (e *Engine) moving(key pool.Key) bool { return e.restores[key] != nil || e.rehomes[key] != nil }

// xfers returns the in-flight table of re-homes (mirror) or of restores.
func (e *Engine) xfers(mirror bool) map[pool.Key]*xferTask {
	if mirror {
		return e.rehomes
	}
	return e.restores
}

// FailNode implements dcs.Degradable (Failed and RecoverNode are the
// directory's): it marks the node dead — the radio goes silent
// immediately, its storage is gone — and launches the repair plan's
// exchanges, which converge over virtual time. The error covers only the
// unrecoverable case of no surviving node.
func (e *Engine) FailNode(victim int) error {
	if changed, err := e.MarkFailed(victim); err != nil || !changed {
		return err
	}
	// A crashed mote loses its RAM: primary segments, queued state, and
	// any mirror copies it kept — a later recovery must never let those
	// serve phantom data. A cell already re-electing keeps its exchange.
	plan := e.PlanRepair(victim, func(c pool.CellID) bool { return e.elects[c] != nil })
	initiator := e.NearestAlive(e.layout.Pos(victim), -1)
	if initiator < 0 {
		return fmt.Errorf("node: no surviving node to repair %d", victim)
	}

	run := &repairRun{plan: plan, started: e.sched.Now()}
	for _, el := range plan.Elections {
		t := &electTask{Election: el, run: run, initiator: initiator}
		e.elects[el.Cell] = t
		run.pending++
		e.sendRepair(repairPacket{kind: repairSuspect, from: initiator, to: el.To, key: pool.Key{Cell: el.Cell}}, t)
	}
	// A re-home whose cell is re-electing waits for the grant.
	for _, key := range e.Rehomes(e.moving) {
		if t := e.elects[key.Cell]; t != nil {
			t.rehomes = append(t.rehomes, key)
			continue
		}
		e.startXfer(run, e.Rehome(key), true)
	}

	if run.pending > 0 {
		e.repairs[victim] = run
	} else {
		// Nothing to exchange: the repair-interference window closes the
		// moment the failure is detected.
		e.tracer.Record(trace.TypeRepair, victim, 0, "done")
	}
	return nil
}

// sendRepair routes one repair packet as a KindControl exchange on
// behalf of task, which is abandoned when the packet is known lost.
func (e *Engine) sendRepair(pkt repairPacket, task repairTask) {
	size := dcs.QueryBytes(e.Dims())
	if len(pkt.events) > 0 {
		size = dcs.ReplyBytes(e.Dims(), len(pkt.events))
	}
	e.repairMsgs++
	e.repairBytes += uint64(size)
	ri := e.repairSent.alloc()
	*e.repairSent.at(ri) = repairSend{pkt: pkt, task: task}
	e.send(pkt.from, pkt.to, network.KindControl, size, recRepair, ri)
}

// repairSettled dispatches a repair packet that landed, or abandons the
// task of one that was lost.
func (e *Engine) repairSettled(ri int32, err error) {
	r := *e.repairSent.at(ri)
	e.repairSent.release(ri, repairSend{})
	if err != nil {
		r.task.aborted(e)
		return
	}
	e.handleRepair(r.pkt)
}

// handleRepair dispatches one delivered (or injected) repair packet.
// Every branch validates the packet against the live task state and
// drops mismatches — duplicates, stale retries, and forged frames must
// never corrupt the store.
func (e *Engine) handleRepair(pkt repairPacket) {
	n := e.layout.N()
	if pkt.from < 0 || pkt.from >= n || pkt.to < 0 || pkt.to >= n {
		return
	}
	switch pkt.kind {
	case repairSuspect, repairClaim, repairGrant:
		// The claim runs candidate → initiator, the others the other way.
		t := e.elects[pkt.key.Cell]
		if t == nil || t.claimed != (pkt.kind == repairGrant) || !legOf(pkt, t.initiator, t.To, pkt.kind == repairClaim) {
			return
		}
		switch pkt.kind {
		case repairSuspect:
			e.sendRepair(repairPacket{kind: repairClaim, from: t.To, to: t.initiator, key: pkt.key}, t)
		case repairClaim:
			t.claimed = true
			e.sendRepair(repairPacket{kind: repairGrant, from: t.initiator, to: t.To, key: pkt.key}, t)
		default:
			e.electGranted(t)
		}

	case repairPull, repairMirror, repairChunk, repairChunkAck:
		// The pull and the acks run destination → source, the others the
		// other way.
		t := e.xfers(pkt.mirror)[pkt.key]
		if t == nil || !legOf(pkt, t.From, t.To, pkt.kind == repairPull || pkt.kind == repairChunkAck) {
			return
		}
		switch pkt.kind {
		case repairPull:
			if !t.toMirror && t.chunks == nil {
				t.chunks = chunked(e.MirrorCopy(pkt.key))
				e.shipChunk(t)
			}
		case repairMirror:
			if t.toMirror && t.sendNext == 0 {
				e.shipChunk(t) // the chunks were staged when the re-home started
			}
		case repairChunkAck:
			if pkt.seq == t.sendNext-1 {
				e.shipChunk(t)
			}
		default:
			if pkt.seq == t.recvNext {
				e.chunkLanded(t, pkt)
			}
		}
	}
}

// legOf reports whether pkt travels from src to dst, or from dst to src
// when back.
func legOf(pkt repairPacket, src, dst int, back bool) bool {
	if back {
		src, dst = dst, src
	}
	return pkt.from == src && pkt.to == dst
}

// chunkLanded lands the next chunk of t by the Store's restore rule. A
// holder's segment grows as chunks land — what makes a mid-transfer query
// see a growing slice; a new mirror takes the planned copy with the last.
func (e *Engine) chunkLanded(t *xferTask, pkt repairPacket) {
	t.recvNext++
	if !t.toMirror {
		e.Restore(t.Key, t.To, pkt.events)
	}
	if pkt.last {
		e.xferEnd(t, true)
		return
	}
	e.sendRepair(repairPacket{kind: repairChunkAck, from: t.To, to: t.From, key: t.Key, mirror: t.toMirror, seq: pkt.seq}, t)
}

// electGranted completes a cell's re-election at the candidate: the
// holder flips and the plan's restore step runs for the cell — a pull per
// mirrored copy, or a local adoption when the candidate is the mirror,
// after which the roles split again by a re-home. Then the re-homes that
// waited for the grant start from the new holder.
func (e *Engine) electGranted(t *electTask) {
	e.Reelect(t.Cell, t.To)
	for _, x := range e.RestoreCell(t.Cell, t.To) {
		if x.From != x.To {
			e.startXfer(t.run, x, false)
			continue
		}
		e.Restore(x.Key, x.To, e.MirrorCopy(x.Key))
		e.startXfer(t.run, e.Rehome(x.Key), true)
	}
	delete(e.elects, t.Cell)
	e.taskDone(t.run)
	for _, key := range t.rehomes {
		e.startXfer(t.run, e.Rehome(key), true)
	}
}

// startXfer launches a planned transfer: a restore with the new holder's
// pull, which streams the source's copy as it stands then; a re-home with
// its announce, which streams the planned copy. A re-home's assignment
// flips only when the full copy has landed — a cell never claims phantom
// replica data — or at once, without radio traffic, when there is no node
// to take the copy or nothing to ship, as the synchronous re-home does.
func (e *Engine) startXfer(run *repairRun, x pool.Transfer, toMirror bool) {
	if toMirror && (x.To < 0 || len(x.Events) == 0) {
		e.SetMirror(x.Key, x.To)
		e.ReplaceMirror(x.Key, nil)
		return
	}
	t := &xferTask{Transfer: x, run: run, toMirror: toMirror}
	pkt := repairPacket{kind: repairPull, from: x.To, to: x.From, key: x.Key}
	if toMirror {
		t.chunks = chunked(x.Events)
		pkt = repairPacket{kind: repairMirror, from: x.From, to: x.To, key: x.Key, mirror: true}
	}
	e.xfers(toMirror)[x.Key] = t
	run.pending++
	e.sendRepair(pkt, t)
}

// shipChunk emits the source's next chunk (stop-and-wait).
func (e *Engine) shipChunk(t *xferTask) {
	if t.sendNext >= len(t.chunks) {
		return
	}
	seq := t.sendNext
	t.sendNext++
	e.sendRepair(repairPacket{
		kind: repairChunk, from: t.From, to: t.To, key: t.Key, mirror: t.toMirror,
		seq: seq, last: seq == len(t.chunks)-1, events: t.chunks[seq],
	}, t)
}

// xferEnd retires a transfer that landed or was cut short by further
// failures. A restore's chunks have already landed in the Store; cut
// short, the holder keeps whatever slice landed, short of what the cell
// acked, served but reported unreached. A new mirror adopts a
// copy that landed and the assignment flips; an undeliverable one is
// dropped entirely, never claiming phantom data.
func (e *Engine) xferEnd(t *xferTask, landed bool) {
	table := e.xfers(t.toMirror)
	if table[t.Key] != t {
		return
	}
	delete(table, t.Key)
	if t.toMirror {
		if !landed {
			t.To, t.Events = -1, nil
		}
		e.SetMirror(t.Key, t.To)
		e.ReplaceMirror(t.Key, t.Events)
	}
	e.taskDone(t.run)
}

// electAborted handles a re-election whose exchange was cut short. While
// the retry budget lasts and the cell's holder is still dead, the cell's
// election step is re-planned on the spot against the current view of the
// membership — a candidate that crashed mid-exchange is in dead[] by the
// time its loss is detected, so the fresh pick lands elsewhere. A cell
// that exhausts the budget (every exchange dying through an
// undetected-dead relay, say) keeps its dead holder until the next
// FailNode call re-plans it.
func (e *Engine) electAborted(t *electTask) {
	if e.elects[t.Cell] != t {
		return
	}
	delete(e.elects, t.Cell)
	if el, ok := e.Election(t.Cell); ok && t.retries < electRetryBudget {
		if initiator := e.NearestAlive(e.layout.Pos(t.run.plan.Victim), -1); initiator >= 0 {
			nt := &electTask{Election: el, run: t.run, initiator: initiator, retries: t.retries + 1, rehomes: t.rehomes}
			e.elects[t.Cell] = nt
			e.sendRepair(repairPacket{kind: repairSuspect, from: initiator, to: el.To, key: pool.Key{Cell: el.Cell}}, nt)
			return // run.pending is untouched: the task was replaced, not retired
		}
	}
	e.taskDone(t.run)
}

// taskDone retires one repair task, recording the repair's latency when
// it was the last.
func (e *Engine) taskDone(run *repairRun) {
	run.pending--
	if run.pending > 0 || e.repairs[run.plan.Victim] != run {
		return
	}
	delete(e.repairs, run.plan.Victim)
	e.repairHist.Add(int64((e.sched.Now() - run.started) / time.Millisecond))
	// Convergence closes the victim's repair-interference window.
	e.tracer.Record(trace.TypeRepair, run.plan.Victim, 0, "done")
}

// chunked splits a copy into transfer chunks of at most
// repairChunkEvents events. An empty copy still yields one (empty)
// chunk so the exchange has a final frame to complete on. The chunks
// share events' backing array, which the transfer owns.
func chunked(events []event.Event) [][]event.Event {
	var out [][]event.Event
	for i := 0; i == 0 || i < len(events); i += repairChunkEvents {
		out = append(out, events[i:min(i+repairChunkEvents, len(events))])
	}
	return out
}
