package pool

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/rng"
)

// oracle is a trivial reference model: a flat event list with the same
// external semantics as the distributed system.
type oracle struct {
	events map[uint64]event.Event
	dead   map[int]bool
}

func newOracle() *oracle {
	return &oracle{events: make(map[uint64]event.Event), dead: make(map[int]bool)}
}

func (o *oracle) insert(e event.Event) { o.events[e.Seq] = e }

func (o *oracle) query(q event.Query) map[uint64]bool {
	rq := q.Rewrite()
	out := make(map[uint64]bool)
	for seq, e := range o.events {
		if rq.Matches(e) {
			out[seq] = true
		}
	}
	return out
}

// randomQuery draws a query mixing exact, partial, narrow and wide
// ranges.
func randomQuery(src *rng.Source) event.Query {
	ranges := make([]event.Range, 3)
	for i := range ranges {
		switch src.Intn(4) {
		case 0:
			ranges[i] = event.Unspecified()
		case 1: // narrow
			lo := src.Float64() * 0.9
			ranges[i] = event.Span(lo, lo+src.Float64()*0.1)
		default: // wide
			lo := src.Float64() * 0.5
			ranges[i] = event.Span(lo, lo+src.Float64()*(1-lo))
		}
	}
	q := event.NewQuery(ranges...)
	if q.Unspecified() == 3 {
		q.Ranges[0] = event.Span(0, 1)
	}
	return q
}

// TestStateMachineAgainstOracle drives a replicated, workload-sharing
// Pool system with a random operation sequence — inserts, queries, node
// failures — comparing every query result against the oracle and checking
// the internal invariants as it goes, the replica pair walk against its
// reference after every single operation. This is the repository's main randomized
// correctness harness.
func TestStateMachineAgainstOracle(t *testing.T) {
	const (
		seeds      = 6
		operations = 800
		nodes      = 300
	)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			t.Parallel()
			sys, _ := newSystem(t, nodes, 500+seed, WithReplication(), WithWorkloadSharing(8))
			o := newOracle()
			src := rng.New(600 + seed)
			var nextSeq uint64
			failed := 0

			aliveNode := func() int {
				for {
					n := src.Intn(nodes)
					if !sys.Failed(n) {
						return n
					}
				}
			}

			for op := 0; op < operations; op++ {
				switch src.Intn(10) {
				case 0, 1, 2, 3, 4: // insert (50%)
					nextSeq++
					e := event.Event{
						Values: []float64{src.Float64(), src.Float64(), src.Float64()},
						Seq:    nextSeq,
					}
					if src.Bool(0.2) { // ties sometimes
						e.Values[1] = e.Values[0]
					}
					if err := sys.Insert(aliveNode(), e); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					o.insert(e)

				case 5, 6, 7, 8: // query (40%)
					q := randomQuery(src)
					got, err := sys.Query(aliveNode(), q)
					if err != nil {
						t.Fatalf("op %d query %v: %v", op, q, err)
					}
					want := o.query(q)
					if len(got) != len(want) {
						t.Fatalf("op %d query %v: got %d events, oracle %d", op, q, len(got), len(want))
					}
					for _, e := range got {
						if !want[e.Seq] {
							t.Fatalf("op %d query %v: spurious event %d", op, q, e.Seq)
						}
					}

				case 9: // fail a node (10%), keeping most of the network up
					if failed >= nodes/10 {
						continue
					}
					victim := src.Intn(nodes)
					if sys.Failed(victim) {
						continue
					}
					if err := sys.FailNode(victim); err != nil {
						t.Fatalf("op %d fail %d: %v", op, victim, err)
					}
					failed++
					// A failure may genuinely lose events when a cell's
					// mirror died earlier; reconcile the oracle with any
					// real losses (and fail if the system holds anything
					// the oracle never saw).
					syncOracleAfterFailure(t, sys, o)
				}

				if err := CheckReplicaPairs(sys); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}

				if op%25 == 0 {
					if err := sys.CheckInvariants(); err != nil {
						t.Fatalf("op %d: invariant violated: %v", op, err)
					}
				}
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("final invariant violation: %v", err)
			}
		})
	}
}

// syncOracleAfterFailure reconciles the oracle with any events genuinely
// lost to a failure (possible when a cell's mirror and primary die in
// sequence). Losses must be a subset of the oracle — the system must
// never hold an event the oracle doesn't know.
func syncOracleAfterFailure(t *testing.T, sys *System, o *oracle) {
	t.Helper()
	held := make(map[uint64]bool)
	for _, segs := range sys.allSegs() {
		for _, seg := range segs {
			for _, e := range seg.Rows.AppendTo(nil) {
				held[e.Seq] = true
			}
		}
	}
	for seq := range held {
		if _, ok := o.events[seq]; !ok {
			t.Fatalf("system holds event %d unknown to the oracle", seq)
		}
	}
	for seq := range o.events {
		if !held[seq] {
			delete(o.events, seq) // genuinely lost to the failure
		}
	}
}
