package systemtest

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/ght"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
)

// eventAt builds a deterministic random event keyed by its sequence
// number, so scenarios can mint fresh events without sharing a source.
func eventAt(dims, seq int) event.Event {
	src := rng.New(int64(seq))
	vals := make([]float64, dims)
	for d := range vals {
		vals[d] = src.Float64()
	}
	e := event.New(vals...)
	e.Seq = uint64(seq)
	return e
}

// Conformance suite dimensions: every scenario runs against every
// factory over a fresh universe.
const (
	confNodes  = 150
	confEvents = 80
	confDims   = 3
	confSeed   = 4200
)

// expect holds a scenario's acceptance thresholds for one system.
type expect struct {
	// minRecall is the mean-recall floor.
	minRecall float64
	// fullRecall requires mean recall exactly 1.
	fullRecall bool
	// complete requires every query's fan-out fully served;
	// incomplete requires at least one query partially served.
	complete, incomplete bool
	// retries requires at least one retry spent across the sweep.
	retries bool
}

// scenario is one row of the conformance table: a fault/recovery script
// applied to a fresh loaded universe, then a full query sweep judged
// against per-system expectations.
type scenario struct {
	name string
	// apply mutates the universe (crash/recover/advance time) and may
	// return a node the sweep must not use as sink.
	apply func(t *testing.T, u *Universe)
	// expectations per factory name.
	expect map[string]expect
}

// everySystem builds an expectation map that holds for all factories,
// with optional per-name overrides.
func everySystem(base expect, overrides map[string]expect) map[string]expect {
	m := map[string]expect{}
	for _, f := range Factories() {
		e := base
		if o, ok := overrides[f.Name]; ok {
			e = o
		}
		m[f.Name] = e
	}
	return m
}

func scenarios() []scenario {
	return []scenario{
		{
			name:  "baseline",
			apply: func(t *testing.T, u *Universe) {},
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				nil),
		},
		{
			name: "detected-crash",
			apply: func(t *testing.T, u *Universe) {
				victim := u.MostLoaded()
				if victim < 0 {
					t.Fatal("no loaded node to crash")
				}
				if err := u.CrashDetected(victim); err != nil {
					t.Fatal(err)
				}
				if !u.Sys.Failed(victim) {
					t.Fatal("FailNode did not mark the victim")
				}
				if u.Router.NumExcluded() != 1 {
					t.Fatalf("router exclusions = %d, want 1", u.Router.NumExcluded())
				}
			},
			// Detection ran, so service must be complete for every system
			// that kept its data; how much survives is each design's story:
			// replication keeps recall 1, the single-copy systems lose the
			// victim's share and report it.
			expect: lostShare,
		},
		{
			name: "silent-crash",
			apply: func(t *testing.T, u *Universe) {
				victim := u.MostLoaded()
				if victim < 0 {
					t.Fatal("no loaded node to crash")
				}
				u.CrashSilent(victim)
			},
			// No repair ran: every system must degrade, not error. The
			// mirror serves pool+repl transparently; the single-copy systems
			// leave the victim's cells unreached after spending retries.
			expect: everySystem(
				expect{minRecall: 0.5, incomplete: true, retries: true},
				map[string]expect{
					"pool+repl":   {fullRecall: true, complete: true, retries: true},
					"node+repair": {fullRecall: true, complete: true, retries: true},
				}),
		},
		{
			name: "blip",
			apply: func(t *testing.T, u *Universe) {
				victim := u.MostLoaded()
				if victim < 0 {
					t.Fatal("no loaded node to crash")
				}
				// Crash and recover before any detection: the mote rebooted
				// inside the beacon timeout, so repair never ran and its
				// storage is intact.
				u.CrashSilent(victim)
				u.Recover(victim)
			},
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				nil),
		},
		{
			name: "out-of-range-id",
			apply: func(t *testing.T, u *Universe) {
				for _, id := range []int{-1, confNodes} {
					if err := u.Sys.FailNode(id); err == nil {
						t.Errorf("FailNode(%d) accepted", id)
					}
					u.Sys.RecoverNode(id)
					if u.Sys.Failed(id) {
						t.Errorf("Failed(%d) = true", id)
					}
				}
			},
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				nil),
		},
		{
			// A reply buffer that escaped to the caller would be rewritten
			// by the next query on the same system, and a reply aliasing a
			// stored row that moved or changed by the next write. So after
			// query A: more queries, 64 inserts into what A read (past
			// several chunk boundaries), and a detected crash of the most
			// loaded node.
			name: "result-ownership",
			apply: func(t *testing.T, u *Universe) {
				sink := u.PickAlive()
				query := func(q event.Query) []event.Event {
					got, _, err := u.Sys.QueryWithReport(sink, q)
					if err != nil {
						t.Fatal(err)
					}
					return got
				}
				qa := PointQueryFor(u.Events[0])
				a := query(qa)
				if len(a) == 0 {
					t.Fatal("query A found nothing")
				}
				snapshot := deepCopy(a)
				query(PointQueryFor(u.Events[1]))
				query(PointQueryFor(u.Events[2]))
				// Equal values land in A's cell, zone or home, from origins
				// spread over the field.
				for i := 0; i < 64; i++ {
					e := event.Event{Values: slices.Clone(u.Events[0].Values), Seq: uint64(40000 + i)}
					if err := u.Sys.Insert(i*confNodes/64, e); err != nil {
						t.Fatal(err)
					}
				}
				crashMostLoaded(t, u)
				if !reflect.DeepEqual(a, snapshot) {
					t.Errorf("query A's result changed under later writes: %v, was %v", a, snapshot)
				}
			},
			expect: lostShare,
		},
		{
			// A store that kept its caller's Values would answer from, or
			// match against, whatever the caller wrote there later.
			name: "insert-owns-values",
			apply: func(t *testing.T, u *Universe) {
				sink := u.PickAlive()
				e := eventAt(confDims, 30000)
				q := PointQueryFor(e)
				if err := u.Sys.Insert(sink, e); err != nil {
					t.Fatal(err)
				}
				query := func() []event.Event {
					got, _, err := u.Sys.QueryWithReport(sink, q)
					if err != nil {
						t.Fatal(err)
					}
					return deepCopy(got)
				}
				before := query()
				if len(before) == 0 {
					t.Fatal("the inserted event is not found")
				}
				for d := range e.Values {
					e.Values[d] /= 2
				}
				after := query()
				if !reflect.DeepEqual(after, before) {
					t.Errorf("the answer followed the inserter's slice: %v, was %v", after, before)
				}
				for _, g := range after {
					if !q.Matches(g) {
						t.Errorf("result %d = %v does not match its own query %v", g.Seq, g, q)
					}
				}
			},
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				nil),
		},
		{
			// Every flavour holds one k, fixed when it is built or, for GHT,
			// by its first insert.
			name: "wrong-k-rejected",
			apply: func(t *testing.T, u *Universe) {
				origin := u.PickAlive()
				for _, k := range []int{confDims - 1, confDims + 1} {
					if err := u.Sys.Insert(origin, eventAt(k, 31000+k)); err == nil || !strings.Contains(err.Error(), "dims") {
						t.Errorf("Insert of a %d-value event = %v, want an error naming the dims", k, err)
					}
				}
			},
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				nil),
		},
		{
			// NaN fails every comparison, so only a validator that names it
			// keeps it out: stored, it could never be answered, and as a
			// greatest value it places nowhere.
			name: "nan-rejected",
			apply: func(t *testing.T, u *Universe) {
				nan := math.NaN()
				origin := u.PickAlive()
				for _, tc := range []struct {
					e    event.Event
					attr string
				}{
					{event.New(0.9, nan, 0.3), "attribute 2"},
					{event.New(nan, 0.2, 0.3), "attribute 1"},
				} {
					err := u.Sys.Insert(origin, tc.e)
					if err == nil || !strings.Contains(err.Error(), tc.attr+" is NaN") {
						t.Errorf("Insert(%v) = %v, want a validation error naming %s", tc.e, err, tc.attr)
					}
				}
				q := event.NewQuery(event.PointRange(0.5), event.Span(nan, 0.5), event.PointRange(0.5))
				if _, _, err := u.Sys.QueryWithReport(origin, q); err == nil || !strings.Contains(err.Error(), "attribute 2") {
					t.Errorf("QueryWithReport(%v) = %v, want a validation error naming attribute 2", q, err)
				}
			},
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				nil),
		},
		{
			name: "insert-after-detected-crash",
			apply: func(t *testing.T, u *Universe) {
				victim := u.MostLoaded()
				if victim < 0 {
					t.Fatal("no loaded node to crash")
				}
				if err := u.CrashDetected(victim); err != nil {
					t.Fatal(err)
				}
				// Forget the pre-crash oracle: this scenario judges only the
				// post-repair write path — new events must be fully stored
				// and queryable, proving the index repair re-homed the
				// victim's responsibilities.
				u.Events = nil
				origin := u.PickAlive()
				for i := 0; i < 20; i++ {
					e := eventAt(confDims, 20000+i)
					if err := u.Insert(origin, e); err != nil {
						t.Fatalf("insert after repair: %v", err)
					}
				}
			},
			// A single-copy Pool key that lost events stays lost, so an
			// answer over it is never complete again, new events or not.
			expect: everySystem(
				expect{fullRecall: true, complete: true},
				map[string]expect{
					"pool": {fullRecall: true, incomplete: true},
					"node": {fullRecall: true, incomplete: true},
				}),
		},
		{
			name: "beacon-detected-crash",
			apply: func(t *testing.T, u *Universe) {
				u.Detector.Start()
				victim := u.MostLoaded()
				if victim < 0 {
					t.Fatal("no loaded node to crash")
				}
				crashAt := 3 * time.Second
				if err := u.Sched.At(crashAt, func() { u.Engine.CrashNode(victim) }); err != nil {
					t.Fatal(err)
				}
				horizon := crashAt + 3*u.Detector.Config().Timeout()
				if err := u.Sched.RunUntil(horizon, 0); err != nil {
					t.Fatal(err)
				}
				u.Detector.Stop()
				if !u.Sys.Failed(victim) {
					t.Fatal("beacon timeout never drove repair")
				}
				h := u.Engine.DetectionLatency()
				if h.Total() != 1 {
					t.Fatalf("detection latency samples = %d, want 1", h.Total())
				}
				if lat := time.Duration(h.Min()) * time.Millisecond; lat < u.Detector.Config().Interval {
					t.Errorf("detection latency %v < one beacon period", lat)
				}
			},
			// After emergent detection the service contract is the same as
			// for a hand-detected crash.
			expect: lostShare,
		},
		{
			// The first victim comes back empty and closest to its old
			// cells' centres, so when the node that took them over dies the
			// re-election lands on a node holding nothing: the repair must
			// pull the cells' copies across the radio.
			name: "second-generation",
			apply: func(t *testing.T, u *Universe) {
				first := crashMostLoaded(t, u)
				u.Sched.Run()
				u.Recover(first)
				u.Sched.Run()
				crashMostLoaded(t, u)
			},
			expect: cascadeExpect,
		},
		{
			// Two detected crashes with the first repair drained in between:
			// the second victim is often the first one's heir.
			name: "drained-double",
			apply: func(t *testing.T, u *Universe) {
				crashMostLoaded(t, u)
				u.Sched.Run()
				crashMostLoaded(t, u)
			},
			expect: cascadeExpect,
		},
	}
}

// deepCopy returns events with their values copied out of the store.
func deepCopy(events []event.Event) []event.Event {
	out := make([]event.Event, len(events))
	for i, e := range events {
		out[i] = event.Event{Values: slices.Clone(e.Values), Seq: e.Seq}
	}
	return out
}

// cascadeExpect is what two detected crashes leave: every event with a
// mirror, and for the single-copy systems the two victims' shares lost,
// and reported. The floors sit below the lowest recall seeds 4200–4207
// measure: 0.61 for Pool, 0.81 for DIM and 0.88 for GHT.
var cascadeExpect = everySystem(
	expect{minRecall: 0.55, incomplete: true},
	map[string]expect{
		"pool+repl":   {fullRecall: true, complete: true},
		"node+repair": {fullRecall: true, complete: true},
		"dim":         {minRecall: 0.75, incomplete: true},
		"ght":         {minRecall: 0.8, incomplete: true},
	})

// lostShare is what a detected crash leaves: the replicated Pools keep
// every event, and every single-copy system loses the victim's share and
// reports it — a Pool key, DIM zone or GHT point that lost events answers
// incomplete from then on.
var lostShare = everySystem(
	expect{minRecall: 0.5, incomplete: true},
	map[string]expect{
		"pool+repl":   {fullRecall: true, complete: true},
		"node+repair": {fullRecall: true, complete: true},
	})

// crashMostLoaded crashes the node holding the most events, detected, and
// returns it.
func crashMostLoaded(t *testing.T, u *Universe) int {
	t.Helper()
	victim := u.MostLoaded()
	if victim < 0 {
		t.Fatal("no loaded node to crash")
	}
	if err := u.CrashDetected(victim); err != nil {
		t.Fatal(err)
	}
	return victim
}

// TestConformance is the cross-system spec: every scenario against every
// system flavour, each on a fresh deterministic universe.
func TestConformance(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, sc := range scenarios() {
				sc := sc
				t.Run(sc.name, func(t *testing.T) {
					u, err := BuildUniverse(f, confNodes, confEvents, confDims, confSeed)
					if err != nil {
						t.Fatal(err)
					}
					sc.apply(t, u)
					sink := u.PickAlive()
					if sink < 0 {
						t.Fatal("no alive sink")
					}
					rep := u.RunQueries(sink)
					for _, v := range rep.Violations {
						t.Error(v)
					}
					want := sc.expect[f.Name]
					if want.fullRecall && rep.MeanRecall() != 1 {
						t.Errorf("mean recall = %.4f, want 1", rep.MeanRecall())
					}
					if rep.MeanRecall() < want.minRecall {
						t.Errorf("mean recall = %.4f, want ≥ %.2f", rep.MeanRecall(), want.minRecall)
					}
					if want.complete && !rep.AllComplete() {
						t.Errorf("only %d/%d queries fully served", rep.Complete, rep.Queries)
					}
					if want.incomplete && rep.AllComplete() {
						t.Error("every query fully served; expected degraded service")
					}
					if want.retries && rep.Retries == 0 {
						t.Error("no retries spent; failure policy never engaged")
					}
				})
			}
		})
	}
}

// TestConformanceDeterministic pins reproducibility across the whole
// harness: the same seed must yield byte-identical reports for the most
// stateful scenario (beacon-driven detection) of every system.
func TestConformanceDeterministic(t *testing.T) {
	run := func(f Factory) Report {
		u, err := BuildUniverse(f, confNodes, confEvents, confDims, confSeed)
		if err != nil {
			t.Fatal(err)
		}
		u.Detector.Start()
		victim := u.MostLoaded()
		if err := u.Sched.At(3*time.Second, func() { u.Engine.CrashNode(victim) }); err != nil {
			t.Fatal(err)
		}
		if err := u.Sched.RunUntil(3*time.Second+3*u.Detector.Config().Timeout(), 0); err != nil {
			t.Fatal(err)
		}
		u.Detector.Stop()
		return u.RunQueries(u.PickAlive())
	}
	for _, f := range Factories() {
		a, b := run(f), run(f)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same-seed runs diverge:\n%+v\n%+v", f.Name, a, b)
		}
	}
}

// TestConformanceLostMirrorWrite inserts an event into a loaded cell whose
// mirror node is down: the unit acks the event when its primary stores
// it, so both Pool engines report the insert as a success and the oracle
// keeps it, while the mirror copy, short of it, no longer vouches.
func TestConformanceLostMirrorWrite(t *testing.T) {
	for _, f := range Factories() {
		if f.Name != "pool+repl" && f.Name != "node+repair" {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			u, err := BuildUniverse(f, confNodes, confEvents, confDims, confSeed)
			if err != nil {
				t.Fatal(err)
			}
			var cells interface {
				Place(origin int, e event.Event) (pool.Key, int, error)
				Mirror(key pool.Key) int
				Vouches(key pool.Key, mirror bool) bool
			}
			switch sys := u.Sys.(type) {
			case *pool.System:
				cells = sys
			case *node.Sync:
				cells = sys.Engine()
			}
			// A sibling of a loaded event lands in its cell; detected at the
			// cell's index node, only its mirror write crosses the radio.
			var (
				e             event.Event
				key           pool.Key
				index, mirror = -1, -1
			)
			for _, held := range u.Events {
				e = event.Event{Values: slices.Clone(held.Values), Seq: 50_000}
				if key, index, err = cells.Place(0, e); err != nil {
					t.Fatal(err)
				}
				if mirror = cells.Mirror(key); mirror >= 0 && mirror != index {
					break
				}
			}
			if mirror < 0 || mirror == index {
				t.Fatal("no loaded cell with a mirror apart from its index node")
			}
			if !cells.Vouches(key, false) || !cells.Vouches(key, true) {
				t.Fatal("a copy of the loaded cell does not vouch before any fault")
			}
			u.CrashSilent(mirror)
			if err := u.Insert(index, e); err != nil {
				t.Fatalf("insert with the mirror down: %v", err)
			}
			if last := u.Events[len(u.Events)-1]; last.Seq != e.Seq {
				t.Fatalf("the oracle's last event is %d, want %d", last.Seq, e.Seq)
			}
			if !cells.Vouches(key, false) {
				t.Error("the primary copy does not vouch for the event it acked")
			}
			if cells.Vouches(key, true) {
				t.Error("the mirror copy vouches although its write was lost")
			}
			got, comp, err := u.Sys.QueryWithReport(index, PointQueryFor(e))
			if err != nil {
				t.Fatal(err)
			}
			if !comp.Complete() || !slices.ContainsFunc(got, func(g event.Event) bool { return g.Seq == e.Seq }) {
				t.Errorf("the acked event is not served whole: %v, %+v", got, comp)
			}
		})
	}
}

// TestConformanceInsertAtDownIndexNode inserts a sibling of a loaded event
// while its cell's index node is silently down (at confSeed, node 84,
// the insert coming from node 85). No driver can reach the index node,
// so every Pool flavour — synchronous and actor, replicated or not —
// returns an error wrapping dcs.ErrUnreachable, stores nothing and
// leaves the oracle as it was; each actor flavour then answers the
// event's point query exactly as its synchronous twin does.
func TestConformanceInsertAtDownIndexNode(t *testing.T) {
	type answer struct {
		seqs     []uint64
		complete bool
	}
	answers := map[string]answer{}
	for _, f := range Factories() {
		if !strings.HasPrefix(f.Name, "pool") && !strings.HasPrefix(f.Name, "node") {
			continue
		}
		u, err := BuildUniverse(f, confNodes, confEvents, confDims, confSeed)
		if err != nil {
			t.Fatal(err)
		}
		var cells interface {
			Place(origin int, e event.Event) (pool.Key, int, error)
		}
		switch sys := u.Sys.(type) {
		case *pool.System:
			cells = sys
		case *node.Sync:
			cells = sys.Engine()
		}
		e := event.Event{Values: slices.Clone(u.Events[0].Values), Seq: 50_000}
		_, index, err := cells.Place(0, e)
		if err != nil {
			t.Fatal(err)
		}
		origin := (index + 1) % confNodes
		loaded := len(u.Events)
		u.CrashSilent(index)
		if err := u.Insert(origin, e); !errors.Is(err, dcs.ErrUnreachable) {
			t.Errorf("%s: insert from %d to down index node %d: got %v, want dcs.ErrUnreachable", f.Name, origin, index, err)
		}
		if len(u.Events) != loaded {
			t.Errorf("%s: the oracle holds %d events after a failed insert, want %d", f.Name, len(u.Events), loaded)
		}
		got, comp, err := u.Sys.QueryWithReport(origin, PointQueryFor(e))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		a := answer{seqs: seqSet(got), complete: comp.Complete()}
		if slices.Contains(a.seqs, e.Seq) {
			t.Errorf("%s: the failed insert is served: %v", f.Name, a.seqs)
		}
		answers[f.Name] = a
	}
	for actor, spec := range map[string]string{"node": "pool", "node+repair": "pool+repl"} {
		if a, s := answers[actor], answers[spec]; !equalSeqs(a.seqs, s.seqs) || a.complete != s.complete {
			t.Errorf("%s answers %+v, %s %+v", actor, a, spec, s)
		}
	}
}

// TestConformanceInsertFromDownOrigin inserts a fresh event detected at a
// node whose radio is silently down: once at a node the event is not
// stored at, once at the very node it is stored at, where no radio hop is
// needed. Either way the reading cannot be stored by a node that is down,
// so every flavour returns an error wrapping dcs.ErrUnreachable, stores
// nothing and leaves the oracle as it was; a point query from the down
// origin answers incomplete, and one from a live sink does not serve the
// event.
func TestConformanceInsertFromDownOrigin(t *testing.T) {
	for _, atStore := range []bool{false, true} {
		for _, f := range Factories() {
			u, err := BuildUniverse(f, confNodes, confEvents, confDims, confSeed)
			if err != nil {
				t.Fatal(err)
			}
			e := eventAt(confDims, 60_000)
			origin := 0
			if atStore {
				origin = storedAt(t, u, 0, e)
			}
			for (origin == storedAt(t, u, origin, e)) != atStore {
				origin++
			}
			name := fmt.Sprintf("%s, origin %d (storage node: %v)", f.Name, origin, atStore)
			loaded := len(u.Events)
			u.CrashSilent(origin)
			if err := u.Insert(origin, e); !errors.Is(err, dcs.ErrUnreachable) {
				t.Errorf("%s: insert from the down origin: got %v, want dcs.ErrUnreachable", name, err)
			}
			if len(u.Events) != loaded {
				t.Errorf("%s: the oracle holds %d events after a failed insert, want %d", name, len(u.Events), loaded)
			}
			// Issued at the down origin itself, the event's first query
			// degrades like any unreachable fan-out: no error, nothing served.
			if got, comp, err := u.Sys.QueryWithReport(origin, PointQueryFor(e)); err != nil || comp.Complete() || len(got) > 0 {
				t.Errorf("%s: point query from the down origin: %d events, %+v, %v; want none, incomplete, no error", name, len(got), comp, err)
			}
			got, _, err := u.Sys.QueryWithReport((origin+1)%confNodes, PointQueryFor(e))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if slices.ContainsFunc(got, func(g event.Event) bool { return g.Seq == e.Seq }) {
				t.Errorf("%s: the failed insert is served", name)
			}
		}
	}
}

// storedAt returns the node u's system stores e at when origin detects
// it: Pool's index node, DIM's zone owner, GHT's home node.
func storedAt(t *testing.T, u *Universe, origin int, e event.Event) int {
	t.Helper()
	var cells interface {
		Place(origin int, e event.Event) (pool.Key, int, error)
	}
	switch sys := u.Sys.(type) {
	case *pool.System:
		cells = sys
	case *node.Sync:
		cells = sys.Engine()
	case *dim.System:
		return sys.ZoneOf(e.Values).Owner
	case *ght.System:
		return u.Net.Layout().Nearest(sys.HashPoint(e.Values))
	default:
		t.Fatalf("%s: no storage rule for %T", u.Sys.Name(), u.Sys)
	}
	_, index, err := cells.Place(origin, e)
	if err != nil {
		t.Fatal(err)
	}
	return index
}
