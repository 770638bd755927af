// Message-driven fault repair: the actor-engine counterpart of the
// synchronous pool.System.FailNode. Both apply the same directory rules
// (Elect, MirrorFor, SetMirror) and the same pool.Store moves — Crash
// loses the victim's RAM; Restore lands a pulled chunk; Append and
// ReplaceMirror adopt and re-home a copy — so after a drained repair both
// hold identical holder maps, stores and mirror assignments, which the
// systemtest equivalence suite checks. What this file adds is how the
// moves travel: where the synchronous repair charges one bulk transfer
// per restored segment, this protocol runs them as multi-hop control
// exchanges on the scheduler:
//
//  1. Suspicion — the alive node closest to the victim becomes the
//     repair initiator and announces the suspicion to the candidate of
//     every orphaned cell (repairSuspect).
//  2. Re-election — each candidate (Elect's pick) claims the index role
//     back to the initiator (repairClaim) and is granted it
//     (repairGrant). The grant flips the cell's holder: inserts and
//     queries issued afterwards route to the new index node.
//  3. State transfer — the new holder pulls the cell's mirrored events
//     hop by hop (repairPull, then stop-and-wait repairChunk /
//     repairChunkAck rounds of at most repairChunkEvents events).
//     While a transfer is in flight the cell answers queries from the
//     partial slice already landed and is reported unreached, so
//     measured completeness dips and then recovers as chunks arrive.
//  4. Mirror re-homing — cells whose mirror copy died are re-copied
//     from the primary to a fresh mirror (repairMirror announce, then
//     the same chunk rounds), and a re-election that lands the index
//     role on the cell's own mirror splits the roles again by moving
//     the copy one node over, as the synchronous repair does.
//
// Every repair frame is network.KindControl: repair traffic competes
// with live queries for the same radio, which is what the churn
// experiment's interference columns measure. A repair leg lost to a
// second failure abandons its task the way the synchronous repair drops
// an unreachable segment; the next FailNode call re-plans any cell
// still held by a dead node, so cascades self-heal.
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
	repairMirror                         // initiator → primary: re-home the cell's mirror
)

// repairPacket is one repair-protocol message: an explicit value
// dispatched through handleRepair — so duplicated, reordered, and
// malformed packets can be injected directly (see FuzzRepairPackets).
type repairPacket struct {
	kind   repairKind
	from   int
	to     int
	victim int
	key    pool.Key
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
	victim  int
	started time.Duration
	pending int // open tasks: elections, transfers, re-homes
}

// electTask is one cell's re-election exchange.
type electTask struct {
	run       *repairRun
	victim    int
	cell      pool.CellID
	initiator int
	candidate int
	claimed   bool
	retries   int // re-plans consumed after aborted exchanges
	// rehomes lists keys whose mirror re-home must wait for this cell's
	// new holder to be in place (the synchronous repair re-homes after
	// re-electing, and copies from the post-election primary).
	rehomes []pool.Key
}

// xferTask is one cell copy streaming between two nodes.
type xferTask struct {
	run    *repairRun
	key    pool.Key
	source int
	dest   int
	// toMirror: the destination is a mirror (re-home or role split) and
	// adopts the copy wholesale on completion. Otherwise the destination
	// is a re-elected holder appending restored events as they land.
	toMirror bool
	chunks   [][]event.Event
	sendNext int // next chunk ordinal the source will emit
	recvNext int // next chunk ordinal the destination expects
	got      []event.Event
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

// QueryDegraded reports whether q would, right now, address a cell
// without an authoritative fully-restored holder: among the query's
// relevant cells, some holder is dead — by the engine's own knowledge
// or by the caller's oracle (down), which lets an experiment with
// global knowledge include the undetected window between a crash and
// the beacon timeout that reveals it — or a re-election or restore
// transfer is still in flight. Queries issued under this predicate pay
// the repair: failure detection on the dead leg, the mirror fallback
// round-trip, and service-queue contention with transfer chunks.
func (e *Engine) QueryDegraded(q event.Query, down func(int) bool) bool {
	var plan pool.Plan
	if e.Resolve(q, &plan) != nil {
		return false
	}
	for _, f := range plan.Fanouts {
		for _, c := range f.Cells {
			if e.elects[c] != nil {
				return true
			}
			key := pool.Key{Dim: f.Pool.Dim, Cell: c}
			if e.xfers[key] != nil || e.transferring[key] {
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

// FailNode implements dcs.Degradable (Failed and RecoverNode are the
// directory's): it marks the node dead — the radio goes silent
// immediately, its storage is gone — and launches the message-driven
// repair. The call returns as soon as the first suspicion packets are
// scheduled; the repair itself converges over virtual time as the
// exchanges play out. The error covers only the unrecoverable case of no
// surviving node.
func (e *Engine) FailNode(victim int) error {
	if changed, err := e.MarkFailed(victim); err != nil || !changed {
		return err
	}
	// A crashed mote loses its RAM: primary segments, queued state, and
	// any mirror copies it kept — a later recovery must never let those
	// serve phantom data.
	e.Crash(victim)

	initiator := e.NearestAlive(e.layout.Pos(victim), -1)
	if initiator < 0 {
		return fmt.Errorf("node: no surviving node to repair %d", victim)
	}

	run := &repairRun{victim: victim, started: e.sched.Now()}

	// Plan re-elections: every cell whose holder is dead and not already
	// being repaired — the victim's cells, plus any cell stalled by a
	// repair a previous cascade cut short.
	var tasks []*electTask
	for _, c := range e.Orphaned() {
		if e.elects[c] != nil {
			continue
		}
		t := &electTask{
			run:       run,
			victim:    victim,
			cell:      c,
			initiator: initiator,
			candidate: e.Elect(c, -1),
		}
		// candidate ≥ 0 always holds here: an initiator exists, so the
		// alive set is non-empty and Elect excludes nobody.
		e.elects[c] = t
		tasks = append(tasks, t)
	}

	// Plan mirror re-homes: every key whose mirror copy died. A key whose
	// cell is also being re-elected defers until the grant lands, because
	// the re-copy reads from the post-election primary.
	var rehomes []pool.Key
	for _, key := range e.MirrorKeys() {
		if e.Failed(e.Mirror(key)) && e.xfers[key] == nil {
			rehomes = append(rehomes, key)
		}
	}

	for _, t := range tasks {
		run.pending++
		e.sendRepair(repairPacket{
			kind: repairSuspect, from: t.initiator, to: t.candidate,
			victim: victim, key: pool.Key{Cell: t.cell},
		}, t)
	}
	for _, key := range rehomes {
		if t := e.elects[key.Cell]; t != nil {
			t.rehomes = append(t.rehomes, key)
			continue
		}
		e.startRehome(run, key)
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
	case repairSuspect:
		t := e.elects[pkt.key.Cell]
		if t == nil || pkt.to != t.candidate || pkt.from != t.initiator || t.claimed {
			return
		}
		e.sendRepair(repairPacket{
			kind: repairClaim, from: t.candidate, to: t.initiator,
			victim: t.victim, key: pkt.key,
		}, t)

	case repairClaim:
		t := e.elects[pkt.key.Cell]
		if t == nil || pkt.from != t.candidate || pkt.to != t.initiator || t.claimed {
			return
		}
		t.claimed = true
		e.sendRepair(repairPacket{
			kind: repairGrant, from: t.initiator, to: t.candidate,
			victim: t.victim, key: pkt.key,
		}, t)

	case repairGrant:
		t := e.elects[pkt.key.Cell]
		if t == nil || pkt.to != t.candidate || pkt.from != t.initiator || !t.claimed {
			return
		}
		e.electGranted(t)

	case repairPull:
		t := e.xfers[pkt.key]
		if t == nil || t.toMirror || pkt.from != t.dest || pkt.to != t.source || t.chunks != nil {
			return
		}
		t.chunks = chunked(e.MirrorCopy(pkt.key))
		e.shipChunk(t)

	case repairChunk:
		t := e.xfers[pkt.key]
		if t == nil || pkt.from != t.source || pkt.to != t.dest || pkt.seq != t.recvNext {
			return
		}
		t.recvNext++
		// The chunk lands by the Store's restore rule. A holder's segment
		// grows as chunks land — what makes a mid-transfer query see a
		// growing slice; a new mirror stages its copy until the last one.
		if t.toMirror {
			t.got = e.AppendRestored(t.got, pkt.events)
		} else {
			e.Restore(t.key, t.dest, pkt.events)
		}
		if pkt.last {
			e.xferEnd(t, true)
			return
		}
		e.sendRepair(repairPacket{
			kind: repairChunkAck, from: t.dest, to: t.source,
			victim: t.run.victim, key: t.key, seq: pkt.seq,
		}, t)

	case repairChunkAck:
		t := e.xfers[pkt.key]
		if t == nil || pkt.from != t.dest || pkt.to != t.source || pkt.seq != t.sendNext-1 {
			return
		}
		e.shipChunk(t)

	case repairMirror:
		t := e.xfers[pkt.key]
		if t == nil || !t.toMirror || pkt.from != t.source || pkt.to != t.dest || t.sendNext != 0 {
			return
		}
		// The announce landed at the new mirror; the primary streams its
		// live copy. (The chunks were staged at send time on the primary —
		// pkt.to is the destination; shipping starts source-side.)
		e.shipChunk(t)
	}
}

// electGranted completes a cell's re-election at the candidate: the
// holder flips, and the new index node pulls the mirrored copy of every
// segment the cell kept there — then any deferred mirror re-homes run
// against the post-election primary.
func (e *Engine) electGranted(t *electTask) {
	e.Reelect(t.cell, t.candidate)
	for _, p := range e.Pools() {
		if !p.ContainsCell(t.cell) {
			continue
		}
		key := pool.Key{Dim: p.Dim, Cell: t.cell}
		m, ok := e.MirrorFor(key, -1)
		if !ok {
			continue // no replication, or the copy died with its mirror: events lost
		}
		if m == t.candidate {
			e.adoptMirrorLocally(t.run, key, t.candidate)
			continue
		}
		if len(e.MirrorCopy(key)) == 0 {
			continue
		}
		x := &xferTask{run: t.run, key: key, source: m, dest: t.candidate}
		e.xfers[key] = x
		e.transferring[key] = true
		t.run.pending++
		e.sendRepair(repairPacket{
			kind: repairPull, from: x.dest, to: x.source,
			victim: t.run.victim, key: key,
		}, x)
	}
	rehomes := t.rehomes
	delete(e.elects, t.cell)
	e.taskDone(t.run)
	for _, key := range rehomes {
		e.startRehome(t.run, key)
	}
}

// adoptMirrorLocally handles re-election landing on the cell's own
// mirror: the candidate already holds the copy, so it adopts it as
// primary without radio traffic, then splits the roles again by moving
// the mirror copy on — the synchronous repair's role-split pass.
func (e *Engine) adoptMirrorLocally(run *repairRun, key pool.Key, candidate int) {
	copied := e.MirrorCopy(key)
	for _, ev := range copied {
		e.Append(key, candidate, ev)
	}
	e.startMirrorCopy(run, key, candidate, copied)
}

// startRehome re-copies a key whose mirror died from its (possibly
// re-elected) primary holder to a fresh mirror node.
func (e *Engine) startRehome(run *repairRun, key pool.Key) {
	index := e.IndexNode(key.Cell)
	e.startMirrorCopy(run, key, index, e.Held(key, index))
}

// startMirrorCopy hands the cell's mirror role to the alive node closest
// to the cell centre other than source, streaming it source's copy: a
// repairMirror announce, then chunk rounds. The assignment flips only
// when the full copy has landed — a cell never claims phantom replica
// data — or at once, without radio traffic, when there is no node to take
// the copy or nothing to ship, as the synchronous re-home does.
func (e *Engine) startMirrorCopy(run *repairRun, key pool.Key, source int, events []event.Event) {
	dest := e.Elect(key.Cell, source)
	if dest < 0 || len(events) == 0 {
		e.SetMirror(key, dest)
		e.ReplaceMirror(key, nil)
		return
	}
	x := &xferTask{
		run: run, key: key, source: source, dest: dest,
		toMirror: true, chunks: chunked(events),
	}
	e.xfers[key] = x
	run.pending++
	e.sendRepair(repairPacket{
		kind: repairMirror, from: source, to: dest,
		victim: run.victim, key: key,
	}, x)
}

// shipChunk emits the source's next chunk (stop-and-wait).
func (e *Engine) shipChunk(t *xferTask) {
	if t.sendNext >= len(t.chunks) {
		return
	}
	seq := t.sendNext
	t.sendNext++
	e.sendRepair(repairPacket{
		kind: repairChunk, from: t.source, to: t.dest,
		victim: t.run.victim, key: t.key,
		seq: seq, last: seq == len(t.chunks)-1, events: t.chunks[seq],
	}, t)
}

// xferEnd retires a transfer that landed or was cut short by further
// failures. A restored holder stops advertising the transfer: complete,
// its queries are complete again; cut short, it keeps whatever slice
// landed and serves it as the cell's (diminished) truth — the synchronous
// repair likewise loses an unreachable segment outright. A new mirror
// adopts a copy that landed and the assignment flips; an undeliverable
// one is dropped entirely, never claiming phantom data.
func (e *Engine) xferEnd(t *xferTask, landed bool) {
	if e.xfers[t.key] != t {
		return
	}
	delete(e.xfers, t.key)
	switch {
	case !t.toMirror:
		delete(e.transferring, t.key)
	case landed:
		e.ReplaceMirror(t.key, t.got)
		e.SetMirror(t.key, t.dest)
	default:
		e.SetMirror(t.key, -1)
		e.ReplaceMirror(t.key, nil)
	}
	e.taskDone(t.run)
}

// electAborted handles a re-election whose exchange was cut short.
// While the cell's holder is still dead and the retry budget lasts,
// the election is re-planned on the spot against the current view of
// the membership — a candidate that crashed mid-exchange is in dead[]
// by the time its loss is detected, so the fresh pick lands elsewhere.
// A cell that exhausts the budget (every exchange dying through an
// undetected-dead relay, say) keeps its dead holder until the next
// FailNode call re-plans it.
func (e *Engine) electAborted(t *electTask) {
	if e.elects[t.cell] != t {
		return
	}
	delete(e.elects, t.cell)
	if e.Failed(e.IndexNode(t.cell)) && t.retries < electRetryBudget {
		initiator := e.NearestAlive(e.layout.Pos(t.victim), -1)
		if initiator >= 0 {
			nt := &electTask{
				run: t.run, victim: t.victim, cell: t.cell,
				initiator: initiator,
				candidate: e.Elect(t.cell, -1),
				retries:   t.retries + 1,
				rehomes:   t.rehomes,
			}
			e.elects[t.cell] = nt
			e.sendRepair(repairPacket{
				kind: repairSuspect, from: nt.initiator, to: nt.candidate,
				victim: nt.victim, key: pool.Key{Cell: nt.cell},
			}, nt)
			// run.pending is untouched: the task was replaced, not retired.
			return
		}
	}
	e.taskDone(t.run)
}

// taskDone retires one repair task, recording the repair's latency when
// it was the last.
func (e *Engine) taskDone(run *repairRun) {
	run.pending--
	if run.pending > 0 {
		return
	}
	if e.repairs[run.victim] == run {
		delete(e.repairs, run.victim)
		e.repairHist.Add(int64((e.sched.Now() - run.started) / time.Millisecond))
		// Convergence closes the victim's repair-interference window.
		e.tracer.Record(trace.TypeRepair, run.victim, 0, "done")
	}
}

// chunked splits a copy into transfer chunks of at most
// repairChunkEvents events. An empty copy still yields one (empty)
// chunk so the exchange has a final frame to complete on.
func chunked(events []event.Event) [][]event.Event {
	if len(events) == 0 {
		return [][]event.Event{nil}
	}
	var out [][]event.Event
	for len(events) > 0 {
		n := repairChunkEvents
		if n > len(events) {
			n = len(events)
		}
		out = append(out, append([]event.Event(nil), events[:n]...))
		events = events[n:]
	}
	return out
}
