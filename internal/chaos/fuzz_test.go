package chaos

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/pool"
	"pooldcs/internal/pooltest"
	"pooldcs/internal/rng"
)

// FuzzResolveUnderFaults interprets the fuzz input as an op script —
// crash, recover, query — against a small replicated Pool universe and
// checks the degradation invariants: resolution never panics or errors,
// the completeness report is internally consistent, every returned
// event actually matches the query, and after every step the store's
// invariants hold — the memoised set summaries among them: each step
// warms every copy's summary, so a crash, restore or re-homing that
// forgot to invalidate one fails the step after.
func FuzzResolveUnderFaults(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x80})             // crash, crash, query
	f.Add([]byte{0x00, 0x40, 0x80, 0x01, 0x90}) // crash, recover, query, crash, query
	f.Add([]byte{0x80, 0x81, 0x82})             // queries only
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 50
		u := newUniverse(t, n, 0xFACADE, nil, pool.WithReplication())
		src := rng.New(0xFACADE + 1)
		var all []event.Event
		for i := 0; i < 120; i++ {
			e := event.New(src.Float64(), src.Float64(), src.Float64())
			e.Seq = uint64(i + 1)
			all = append(all, e)
			if err := u.pool.Insert(src.Intn(n), e); err != nil {
				t.Fatal(err)
			}
		}

		alive := n
		for _, op := range ops {
			id := int(op) % n
			switch {
			case op < 0x40: // crash (keep one survivor for the sink)
				if alive > 1 && !u.engine.Down(id) {
					u.engine.CrashNode(id)
					alive--
				}
			case op < 0x80: // recover
				if u.engine.Down(id) {
					u.engine.RecoverNode(id)
					alive++
				}
			default: // query from an alive sink
				sink := id
				for u.engine.Down(sink) {
					sink = (sink + 1) % n
				}
				got, comp, err := u.pool.QueryWithReport(sink, fullDomain())
				if err != nil {
					t.Fatalf("resolution must degrade, not error: %v", err)
				}
				if comp.CellsReached > comp.CellsTotal {
					t.Fatalf("reached %d of %d cells", comp.CellsReached, comp.CellsTotal)
				}
				if comp.CellsTotal-comp.CellsReached != len(comp.Unreached) {
					t.Fatalf("unreached list has %d entries, report says %d",
						len(comp.Unreached), comp.CellsTotal-comp.CellsReached)
				}
				if fr := comp.Fraction(); fr < 0 || fr > 1 {
					t.Fatalf("completeness fraction %v outside [0,1]", fr)
				}
				if len(got) > len(all) {
					t.Fatalf("returned %d events, only %d exist", len(got), len(all))
				}
				seen := make(map[uint64]bool, len(all))
				for _, e := range all {
					seen[e.Seq] = true
				}
				for _, e := range got {
					if !seen[e.Seq] {
						t.Fatalf("returned event with unknown seq %d", e.Seq)
					}
				}
			}
			for _, err := range []error{u.pool.CheckInvariants(), pooltest.CheckReplicaPairs(u.pool)} {
				if err != nil {
					t.Fatalf("after op %#x: %v", op, err)
				}
			}
		}
		// Any interleaving must leave the universe queryable.
		sink := 0
		for u.engine.Down(sink) {
			sink++
		}
		if _, _, err := u.pool.QueryWithReport(sink, fullDomain()); err != nil {
			t.Fatalf("final resolution errored: %v", err)
		}
		for _, err := range u.engine.Errs() {
			t.Fatalf("repair error: %v", err)
		}
	})
}
