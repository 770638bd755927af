package node

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/pool"
)

// FuzzRepairPackets throws arbitrary repair-protocol packets — forged,
// duplicated, reordered, malformed — at an engine with a live repair in
// flight, interleaved with scheduler progress, and checks the protocol
// invariants hold no matter what arrives:
//
//   - no panic;
//   - per-node stored counters stay consistent with store contents;
//   - no event is duplicated within a node's cell segment;
//   - dead nodes hold no primary data;
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
				kind:   repairKind(chunk[0]%9 + 1),
				from:   int(chunk[1]) % n,
				to:     int(chunk[2]) % n,
				victim: int(chunk[3]) % n,
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

		checkStoreInvariants(t, fx)
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

// checkStoreInvariants verifies per-node storage consistency: counter
// accuracy, no duplicate sequence numbers per segment, no data on dead
// nodes, and only valid events stored.
func checkStoreInvariants(t *testing.T, fx *repairFixture) {
	t.Helper()
	for i, m := range fx.engine.store {
		total := 0
		for key, evs := range m {
			seen := map[uint64]bool{}
			for _, ev := range evs {
				if seen[ev.Seq] {
					t.Errorf("node %d key %+v: duplicate event %d", i, key, ev.Seq)
				}
				seen[ev.Seq] = true
				if ev.Validate() != nil {
					t.Errorf("node %d key %+v: invalid event %d stored", i, key, ev.Seq)
				}
			}
			total += len(evs)
		}
		if total != fx.engine.stored[i] {
			t.Errorf("node %d: stored counter %d, actual %d", i, fx.engine.stored[i], total)
		}
		if fx.engine.Failed(i) && total != 0 {
			t.Errorf("dead node %d holds %d events", i, total)
		}
	}
}
