package systemtest

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
)

// TestConformanceActorEquivalence pins the actor engine to its
// synchronous specification: for every fault scenario and several
// seeds, the message-driven implementation ("node", "node+repair") and
// the global-knowledge one ("pool", "pool+repl") are built over
// identical substrates, put through the identical fault script, and
// must hold the same stores and answer every query of the sweep with the
// same result set and the same completeness accounting — including after
// a crash repaired by real multi-hop re-election and mirror-transfer
// exchanges.
func TestConformanceActorEquivalence(t *testing.T) {
	byName := map[string]Factory{}
	for _, f := range Factories() {
		byName[f.Name] = f
	}
	pairs := []struct{ actor, spec string }{
		{"node", "pool"},
		{"node+repair", "pool+repl"},
	}
	for _, pr := range pairs {
		pr := pr
		for seed := int64(confSeed); seed < confSeed+3; seed++ {
			seed := seed
			for _, sc := range scenarios() {
				sc := sc
				name := fmt.Sprintf("%s-vs-%s/seed%d/%s", pr.actor, pr.spec, seed, sc.name)
				t.Run(name, func(t *testing.T) {
					actor, err := BuildUniverse(byName[pr.actor], confNodes, confEvents, confDims, seed)
					if err != nil {
						t.Fatal(err)
					}
					spec, err := BuildUniverse(byName[pr.spec], confNodes, confEvents, confDims, seed)
					if err != nil {
						t.Fatal(err)
					}
					// Same seed, same placement algorithm: both universes must
					// aim the scenario's crash at the same victim.
					if av, sv := actor.MostLoaded(), spec.MostLoaded(); av != sv {
						t.Fatalf("storage diverges before any fault: actor crashes %d, spec %d", av, sv)
					}
					// Warm both splitter memos so that a fault which fails to
					// invalidate them shows below.
					checkSplitters(t, actor, spec)
					sc.apply(t, actor)
					sc.apply(t, spec)
					if t.Failed() {
						return
					}
					// The actor's repair is message-driven: let its grants land.
					actor.Sched.Run()
					checkSplitters(t, actor, spec)
					checkStores(t, actor, spec)
					sink := actor.PickAlive()
					if sink != spec.PickAlive() {
						t.Fatalf("sink diverges: actor %d, spec %d", sink, spec.PickAlive())
					}
					if len(actor.Events) != len(spec.Events) {
						t.Fatalf("oracle diverges: %d vs %d events", len(actor.Events), len(spec.Events))
					}
					for i, e := range actor.Events {
						q := PointQueryFor(e)
						aGot, aComp, aErr := actor.Sys.QueryWithReport(sink, q)
						sGot, sComp, sErr := spec.Sys.QueryWithReport(sink, q)
						if aErr != nil || sErr != nil {
							t.Fatalf("query %d: actor err %v, spec err %v", i, aErr, sErr)
						}
						if a, s := seqSet(aGot), seqSet(sGot); !equalSeqs(a, s) {
							t.Errorf("query %d (event %d): result sets diverge\nactor: %v\nspec:  %v",
								i, e.Seq, a, s)
						}
						if aComp.CellsTotal != sComp.CellsTotal || aComp.CellsReached != sComp.CellsReached {
							t.Errorf("query %d: completeness diverges: actor %d/%d, spec %d/%d",
								i, aComp.CellsReached, aComp.CellsTotal, sComp.CellsReached, sComp.CellsTotal)
						}
						if aComp.Retries != sComp.Retries {
							t.Errorf("query %d: retry spend diverges: actor %d, spec %d",
								i, aComp.Retries, sComp.Retries)
						}
						au, su := sortedCopy(aComp.Unreached), sortedCopy(sComp.Unreached)
						if !equalStrings(au, su) {
							t.Errorf("query %d: unreached cells diverge\nactor: %v\nspec:  %v", i, au, su)
						}
						if t.Failed() {
							return
						}
					}
				})
			}
		}
	}
}

// checkSplitters holds both implementations' directories to their own
// invariant (every memoised splitter is the Pool's index node closest to
// the sink) and to each other: whatever FailNode, RecoverNode and repair
// grants the scenario caused, the actor elects the splitters the spec
// does.
func checkSplitters(t *testing.T, actor, spec *Universe) {
	t.Helper()
	eng := actor.Sys.(*node.Sync).Engine()
	sys := spec.Sys.(*pool.System)
	for _, d := range []*pool.Directory{eng.Directory, sys.Directory} {
		if err := d.CheckDirectory(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range sys.Pools() {
		for sink := 0; sink < confNodes; sink++ {
			if a, s := eng.SplitterFor(p, sink), sys.SplitterFor(p, sink); a != s {
				t.Fatalf("SplitterFor(%v, %d): actor %d, spec %d", p, sink, a, s)
			}
		}
	}
}

// checkStores holds the actor's drained store to the spec's, Pool cell by
// Pool cell: the same index node and mirror, the same seqs at every node,
// the same seqs in the mirror copy, the same copies vouching — and the
// same storage load.
func checkStores(t *testing.T, actor, spec *Universe) {
	t.Helper()
	eng := actor.Sys.(*node.Sync).Engine()
	sys := spec.Sys.(*pool.System)
	a, s := heldSeqs(eng.Store), heldSeqs(sys.Store)
	for _, p := range sys.Pools() {
		for _, c := range p.Cells() {
			key := pool.Key{Dim: p.Dim, Cell: c}
			if ah, sh := eng.IndexNode(c), sys.IndexNode(c); ah != sh {
				t.Errorf("cell %v of P%d: index node: actor %d, spec %d", c, p.Dim, ah, sh)
			}
			if am, sm := eng.Mirror(key), sys.Mirror(key); am != sm {
				t.Errorf("cell %v of P%d: mirror: actor %d, spec %d", c, p.Dim, am, sm)
			}
			if !reflect.DeepEqual(a[key], s[key]) {
				t.Errorf("cell %v of P%d: seqs per node diverge\nactor: %v\nspec:  %v", c, p.Dim, a[key], s[key])
			}
			if am, sm := seqSet(eng.MirrorCopy(key)), seqSet(sys.MirrorCopy(key)); !equalSeqs(am, sm) {
				t.Errorf("cell %v of P%d: mirror copies diverge\nactor: %v\nspec:  %v", c, p.Dim, am, sm)
			}
			for _, mirror := range []bool{false, true} {
				if av, sv := eng.Vouches(key, mirror), sys.Vouches(key, mirror); av != sv {
					t.Errorf("cell %v of P%d (mirror %v): vouches diverges: actor %v, spec %v", c, p.Dim, mirror, av, sv)
				}
			}
		}
	}
	if al, sl := eng.StorageLoad(), sys.StorageLoad(); !slices.Equal(al, sl) {
		t.Errorf("storage load diverges\nactor: %v\nspec:  %v", al, sl)
	}
}

// heldSeqs returns the sorted seqs each node holds of each cell, nodes
// holding none left out.
func heldSeqs(st *pool.Store) map[pool.Key]map[int][]uint64 {
	out := map[pool.Key]map[int][]uint64{}
	st.EachSegment(func(key pool.Key, node int, events []event.Event) {
		if len(events) == 0 {
			return
		}
		if out[key] == nil {
			out[key] = map[int][]uint64{}
		}
		out[key][node] = append(out[key][node], seqSet(events)...)
	})
	for _, nodes := range out {
		for _, seqs := range nodes {
			slices.Sort(seqs)
		}
	}
	return out
}

func seqSet(events []event.Event) []uint64 {
	out := make([]uint64, 0, len(events))
	for _, e := range events {
		out = append(out, e.Seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
