package node

import (
	"slices"
	"testing"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/workload"
)

// FuzzQueryUnderFaults runs waves of concurrent queries on a replicated
// engine while nodes die under them — some silently at the radio, some
// detected and repaired — inside a field-wide loss burst, and holds the
// query path to the specification's degradation contract however its
// recycled records are interleaved:
//
//   - every query completes, with 0 ≤ CellsReached ≤ CellsTotal and one
//     Unreached label per cell not reached;
//   - a result set holds stored events that answer the query, each once;
//   - with every node alive, a complete answer is the whole answer, and
//     on a clean radio every answer is complete;
//   - a complete answer holds every event of the query: each was acked,
//     and a copy short of one never vouches;
//   - once the scheduler has run dry every task, leg, gather, operation,
//     write and repair packet is back in its arena, no repair is left in
//     flight, the stores are consistent, and no non-degradable error
//     surfaced.
func FuzzQueryUnderFaults(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(0), uint8(3))
	f.Add(int64(2), uint64(0), uint8(200), uint8(5))
	f.Add(int64(3), uint64(0x0000_0421_0000_1042), uint8(0), uint8(8))
	f.Add(int64(4), uint64(0xffff_0000_0000_00ff), uint8(90), uint8(15))

	f.Fuzz(func(t *testing.T, seed int64, crashMask uint64, lossBurst, concurrent uint8) {
		const n = 40
		fx := newRepairFixture(t, n, 300, 17, WithReplication())
		src := rng.New(seed)
		qgen := workload.NewQueries(src.Fork("queries"), 3)
		if lossBurst > 0 {
			fx.net.AddRegionLoss(fx.layout.Bounds(), float64(lossBurst)/255*0.9, src.Fork("loss"))
		}

		type issued struct {
			q       event.Query
			results []event.Event
			comp    dcs.Completeness
			done    bool
		}
		var queries []*issued
		wave := func() {
			for i := 0; i <= int(concurrent%16); i++ {
				iq := &issued{q: fullQuery()}
				if i%2 == 1 {
					iq.q = qgen.ExactMatch(workload.ExponentialSizes)
				}
				queries = append(queries, iq)
				err := fx.engine.QueryWithReport(src.Intn(n), iq.q, func(r []event.Event, c dcs.Completeness, _ time.Duration) {
					iq.results, iq.comp, iq.done = r, c, true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}

		// The first wave is in flight when the faults strike; the second is
		// issued into the faulted network, beside the repairs.
		wave()
		for i := src.Intn(400); i > 0 && fx.sched.Step(); i-- {
		}
		for id := 0; id < 32; id++ {
			if crashMask&(1<<id) != 0 {
				fx.net.FailNode(id) // dies silently: the engine is not told
			}
			if crashMask&(1<<(32+id)) != 0 {
				fx.router.Exclude(id)
				fx.net.FailNode(id)
				if err := fx.engine.FailNode(id); err != nil {
					t.Fatal(err) // nodes 32..39 never die, so a repairer survives
				}
			}
		}
		wave()
		fx.sched.Run()

		stored := make(map[uint64]bool, len(fx.events))
		for _, ev := range fx.events {
			stored[ev.Seq] = true
		}
		for i, iq := range queries {
			if !iq.done {
				t.Fatalf("query %d never completed", i)
			}
			c := iq.comp
			if c.CellsReached < 0 || c.CellsReached > c.CellsTotal || c.CellsTotal-c.CellsReached != len(c.Unreached) {
				t.Fatalf("query %d: reached %d of %d cells with %d unreached labels", i, c.CellsReached, c.CellsTotal, len(c.Unreached))
			}
			rq := iq.q.Rewrite()
			seen := make(map[uint64]bool, len(iq.results))
			for _, ev := range iq.results {
				if !stored[ev.Seq] || !rq.Matches(ev) || seen[ev.Seq] {
					t.Fatalf("query %d: event %d is unknown, no answer to %v, or returned twice", i, ev.Seq, iq.q)
				}
				seen[ev.Seq] = true
			}
			if crashMask == 0 && lossBurst == 0 && !c.Complete() {
				t.Fatalf("query %d incomplete (%d/%d) on a fault-free network", i, c.CellsReached, c.CellsTotal)
			}
			if crashMask == 0 && c.Complete() && !slices.Equal(seqs(iq.results), seqs(rq.Filter(fx.events))) {
				t.Fatalf("query %d reports complete with %d of %d answers", i, len(iq.results), len(rq.Filter(fx.events)))
			}
			for _, ev := range rq.Filter(fx.events) {
				if c.Complete() && !seen[ev.Seq] {
					t.Fatalf("query %d reports complete without event %d", i, ev.Seq)
				}
			}
		}

		fx.engine.idle(t)
		if got := fx.sched.Pending(); got != 0 {
			t.Errorf("%d events pending after the drain", got)
		}
		if got := fx.engine.RepairsInFlight(); got != 0 {
			t.Errorf("%d repairs still in flight after the drain", got)
		}
		checkStores(t, fx.engine)
		for _, err := range fx.engine.Errors() {
			t.Errorf("non-degradable transport error: %v", err)
		}
	})
}

// FuzzRepairPackets throws arbitrary repair-protocol packets — forged,
// duplicated, reordered, malformed — at an engine with a live repair in
// flight, interleaved with scheduler progress, and checks the protocol
// invariants hold no matter what arrives:
//
//   - no panic;
//   - the store passes the Store's own check (counters consistent with
//     the segments, dead nodes holding no primary data) and no event is
//     duplicated within a node's cell segment;
//   - the repair still converges once the scheduler drains, with every
//     cell held by an alive node;
//   - no non-degradable transport errors surface.
func FuzzRepairPackets(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{5, 9, 9, 0, 1, 2, 3, 0, 6, 1, 2, 0, 1, 2, 0, 1})
	f.Add([]byte{2, 200, 3, 7, 7, 7, 0, 0, 3, 1, 1, 1, 1, 1, 1, 1, 4, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 7, 1, 1, 1, 1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		fx := newRepairFixture(t, 30, 300, 17, WithReplication())
		n := fx.layout.N()
		victim := fx.mostLoaded()
		fx.crash(t, victim)

		// Interleave injected packets with genuine protocol progress so
		// forged frames race live elections and transfers.
		for len(data) >= 8 {
			chunk := data[:8]
			data = data[8:]
			pkt := repairPacket{
				kind: repairKind(chunk[0]%9 + 1),
				from: int(chunk[1]) % n,
				to:   int(chunk[2]) % n,
				key: pool.Key{
					Dim:  int(chunk[4])%3 + 1,
					Cell: pool.CellID{X: int(chunk[5]) % 40, Y: int(chunk[6]) % 40},
				},
				seq:  int(chunk[7]) % 8,
				last: chunk[7]&1 == 1,
			}
			// Half the chunk-bearing packets carry payloads, some invalid.
			if pkt.kind == repairChunk && chunk[7]&2 == 0 {
				ev := event.New(float64(chunk[1])/255, float64(chunk[2])/255, float64(chunk[3])/255)
				ev.Seq = uint64(chunk[4])
				bad := event.Event{Values: []float64{2, -1}, Seq: 999999}
				pkt.events = []event.Event{ev, ev, bad}
			}
			fx.engine.handleRepair(pkt)
			for i := 0; i < int(chunk[0])%4; i++ {
				fx.sched.Step()
			}
		}
		fx.sched.Run()

		checkStores(t, fx.engine)
		if got := fx.engine.RepairsInFlight(); got != 0 {
			t.Errorf("%d repairs still in flight after drain", got)
		}
		if cells := fx.engine.Orphaned(); len(cells) > 0 {
			t.Errorf("cells %v held by dead nodes after drain", cells)
		}
		for _, err := range fx.engine.Errors() {
			t.Errorf("non-degradable transport error: %v", err)
		}
	})
}

// checkStores holds the engine's store to the Store's own check — rules 2
// and 3 of pool.CheckInvariants, which hold in every state: no events at a
// dead node, counters equal to the segments — plus what only the actor
// promises: every event it holds is valid and no segment holds a seq
// twice, the restore rule's dedupe. (The spec cannot promise the latter:
// its Insert stores whatever Seq the caller gives, repeats included.)
func checkStores(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.CheckStore(); err != nil {
		t.Error(err)
	}
	e.EachSegment(func(key pool.Key, node int, events []event.Event) {
		seen := map[uint64]bool{}
		for _, ev := range events {
			if seen[ev.Seq] {
				t.Errorf("node %d key %+v: duplicate event %d", node, key, ev.Seq)
			}
			seen[ev.Seq] = true
			if ev.Validate() != nil {
				t.Errorf("node %d key %+v: invalid event %d stored", node, key, ev.Seq)
			}
		}
	})
}
