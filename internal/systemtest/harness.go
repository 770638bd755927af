// Package systemtest is the cross-system conformance harness: one table
// of fault/recovery/query scenarios executed against every dcs.System
// implementation (Pool and the actor engine, each with and without
// replication, DIM and GHT), so their degradation semantics are pinned
// by a single spec instead of per-package test files that can drift.
//
// The contract under test is the shared fault surface grown around the
// paper's protocols: FailNode/RecoverNode/Failed, QueryWithReport with
// a dcs.Completeness report, graceful degradation against undetected
// corpses, and — through chaos.Engine plus discovery.Protocol — crash
// teardown driven by emergent beacon-timeout detection.
package systemtest

import (
	"fmt"
	"time"

	"pooldcs/internal/chaos"
	"pooldcs/internal/dcs"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// Universe is one system under test with its full substrate: the shared
// deterministic scheduler, radio, router, beacon protocol, and the chaos
// engine wired for beacon-timeout failure detection.
type Universe struct {
	Sched    *sim.Scheduler
	Net      *network.Network
	Router   *gpsr.Router
	Sys      dcs.System
	Detector *discovery.Protocol
	Engine   *chaos.Engine

	// Events is the ground-truth oracle: every event ever inserted.
	Events []event.Event
}

// Factory names one system flavour and adds it, under the given name,
// as the one arm of a deployment: the arm's radio carries its traffic,
// the deployment's router routes it, and the actor-engine flavours run
// their exchanges on the deployment's scheduler. src is the flavour's
// own randomness (Pool's pivots).
type Factory struct {
	Name string
	Add  func(e *experiment.Env, name string, src *rng.Source) (dcs.System, error)
}

// Factories returns every system flavour the conformance suite covers.
// "node" and "node+repair" are the actor-engine implementations of
// "pool" and "pool+repl": the same protocol executed as real
// message exchanges (including message-driven fault repair), drained to
// completion behind the synchronous dcs.System surface by node.Sync.
func Factories() []Factory {
	return []Factory{
		{"pool", func(e *experiment.Env, name string, src *rng.Source) (dcs.System, error) {
			return e.AddPool(name, src, nil)
		}},
		{"pool+repl", func(e *experiment.Env, name string, src *rng.Source) (dcs.System, error) {
			return e.AddPool(name, src, nil, pool.WithReplication())
		}},
		{"dim", func(e *experiment.Env, name string, _ *rng.Source) (dcs.System, error) {
			return e.AddDIM(name, nil)
		}},
		{"ght", func(e *experiment.Env, name string, _ *rng.Source) (dcs.System, error) {
			return e.AddGHT(name, nil), nil
		}},
		{"node", addActor()},
		{"node+repair", addActor(node.WithReplication())},
	}
}

// addActor is the Add of an actor-engine flavour: it returns the
// node.Sync surface AddActor gave the arm.
func addActor(opts ...node.Option) func(e *experiment.Env, name string, src *rng.Source) (dcs.System, error) {
	return func(e *experiment.Env, name string, src *rng.Source) (dcs.System, error) {
		if _, err := e.AddActor(name, src, nil, opts...); err != nil {
			return nil, err
		}
		return e.Arms[len(e.Arms)-1].Sys, nil
	}
}

// BuildUniverse assembles one factory's system over a fresh deployment
// and loads events from random origins. The same seed always yields the
// same universe, event placement, and beacon timeline: its forks, in
// order, are layout, system, beacons, events.
func BuildUniverse(f Factory, n, nEvents, dims int, seed int64) (*Universe, error) {
	src := rng.New(seed)
	env, err := experiment.Deploy(n, dims, src)
	if err != nil {
		return nil, err
	}
	env.Sched = sim.NewScheduler()
	sys, err := f.Add(env, f.Name, src.Fork("system"))
	if err != nil {
		return nil, err
	}
	u := &Universe{Sched: env.Sched, Net: env.Arms[0].Net, Router: env.Router, Sys: sys}
	u.Detector = discovery.New(u.Net, u.Sched, src.Fork("beacons"), discovery.Config{Interval: time.Second})
	u.Engine = chaos.NewEngine(u.Sched, u.Net, u.Router, []chaos.System{sys},
		chaos.WithFailureDetection(u.Detector))
	evSrc := src.Fork("events")
	for i := 0; i < nEvents; i++ {
		vals := make([]float64, dims)
		for d := range vals {
			vals[d] = evSrc.Float64()
		}
		e := event.New(vals...)
		e.Seq = uint64(i + 1)
		if err := u.Insert(evSrc.Intn(n), e); err != nil {
			return nil, fmt.Errorf("%s: load event %d: %w", f.Name, i, err)
		}
	}
	return u, nil
}

// Insert stores one event and records it in the oracle.
func (u *Universe) Insert(origin int, e event.Event) error {
	if err := u.Sys.Insert(origin, e); err != nil {
		return err
	}
	u.Events = append(u.Events, e)
	return nil
}

// PointQueryFor builds the exact-match query addressing one event's key
// — the one query class every system, GHT included, can evaluate.
func PointQueryFor(e event.Event) event.Query {
	rs := make([]event.Range, len(e.Values))
	for i, v := range e.Values {
		rs[i] = event.PointRange(v)
	}
	return event.NewQuery(rs...)
}

// MostLoaded returns the node holding the most events — the crash target
// that maximizes data at risk — or -1 when storage is empty.
func (u *Universe) MostLoaded() int {
	victim, max := -1, 0
	for i, l := range u.Sys.StorageLoad() {
		if l > max {
			victim, max = i, l
		}
	}
	return victim
}

// PickAlive returns the lowest node id the engine holds up.
func (u *Universe) PickAlive() int {
	for id := 0; id < u.Net.Layout().N(); id++ {
		if !u.Engine.Down(id) && !u.Sys.Failed(id) {
			return id
		}
	}
	return -1
}

// CrashDetected kills a node the way the chaos engine does after the
// beacon timeout fired: routing first, then the radio, then repair.
func (u *Universe) CrashDetected(id int) error {
	u.Router.Exclude(id)
	u.Net.FailNode(id)
	return u.Sys.FailNode(id)
}

// CrashSilent silences a node's radio and routes without repairing —
// the undetected-corpse window queries must degrade through.
func (u *Universe) CrashSilent(id int) {
	u.Router.Exclude(id)
	u.Net.FailNode(id)
}

// Recover restores a node at every layer.
func (u *Universe) Recover(id int) {
	u.Router.Restore(id)
	u.Net.RecoverNode(id)
	u.Sys.RecoverNode(id)
}

// Report aggregates one scenario's query sweep over a universe.
type Report struct {
	Queries    int
	SumRecall  float64
	Retries    int
	Complete   int // queries whose fan-out was fully served
	Violations []string
}

// RunQueries issues the point query of every oracle event from sink and
// aggregates recall and completeness, enforcing the report invariants on
// every single query:
//
//   - the error return covers only programming faults — degradation must
//     not error;
//   - 0 ≤ CellsReached ≤ CellsTotal and the Unreached list matches the
//     gap exactly;
//   - every returned event matches the query (no phantom results);
//   - a complete answer holds every oracle event: completeness is never
//     over-reported.
func (u *Universe) RunQueries(sink int) Report {
	var rep Report
	for _, e := range u.Events {
		q := PointQueryFor(e)
		oracle := q.Rewrite().Filter(u.Events)
		got, comp, err := u.Sys.QueryWithReport(sink, q)
		rep.Queries++
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: query error: %v", e.Seq, err))
			continue
		}
		if comp.CellsReached < 0 || comp.CellsReached > comp.CellsTotal {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: reached %d of %d cells", e.Seq, comp.CellsReached, comp.CellsTotal))
		}
		if len(comp.Unreached) != comp.CellsTotal-comp.CellsReached {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: unreached list %d entries, want %d",
					e.Seq, len(comp.Unreached), comp.CellsTotal-comp.CellsReached))
		}
		if f := comp.Fraction(); f < 0 || f > 1 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: completeness fraction %v", e.Seq, f))
		}
		rq := q.Rewrite()
		for _, g := range got {
			if !rq.Matches(g) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("event %d: phantom result %d", e.Seq, g.Seq))
			}
		}
		recall := experiment.RecallOf(got, oracle)
		if comp.Complete() && recall < 1 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("event %d: complete answer with recall %.3f", e.Seq, recall))
		}
		rep.SumRecall += recall
		rep.Retries += comp.Retries
		if comp.Complete() {
			rep.Complete++
		}
	}
	return rep
}

// MeanRecall returns the sweep's mean recall (1 for an empty sweep).
func (r Report) MeanRecall() float64 {
	if r.Queries == 0 {
		return 1
	}
	return r.SumRecall / float64(r.Queries)
}

// AllComplete reports whether every query's fan-out was fully served.
func (r Report) AllComplete() bool { return r.Complete == r.Queries }
