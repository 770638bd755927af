package main

import (
	"fmt"
	"strconv"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/load"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/rng"
)

// Pinned sizes of load_open: five fixed offered rates, each on a fresh
// pool-actor deployment for loadHorizon of virtual time. The top rate
// sits just past the knee, so max_rate_in_slo has a rate on each side.
var loadRates = [5]float64{50, 100, 150, 200, 300}

const (
	loadHorizon = 30 * time.Second
	// preloadSeqBase keeps the preloaded events' sequence numbers apart
	// from those of the events the load engine generates itself.
	preloadSeqBase = 1 << 40
)

// tappedTarget is the bench's own load.Target around node.Engine: the
// same Station, Depth and Launch behaviour as load.ActorTarget, but
// the result sets and acknowledgements reach the oracle.
type tappedTarget struct {
	eng *node.Engine
	// clock orders launches and completions: one tick per callback.
	clock   int
	inserts []tappedInsert
	queries []tappedQuery
}

type tappedInsert struct {
	ev              event.Event
	launched, acked int // clock values; acked 0 = never
}

type tappedQuery struct {
	sink           int
	q              event.Query
	got            []event.Event
	launched, done int // clock values; done 0 = never
}

func (t *tappedTarget) Name() string             { return "pool-actor" }
func (t *tappedTarget) Supports(load.Class) bool { return true }
func (t *tappedTarget) Depth(station int) int    { return t.eng.QueueDepth(station) }
func (t *tappedTarget) MaxDepth() int            { return t.eng.MaxQueueDepth() }

func (t *tappedTarget) Station(op *load.Op) int {
	if op.Class == load.Insert {
		return op.Node
	}
	if sps := t.eng.SplittersFor(op.Node, op.Query); len(sps) > 0 {
		return sps[0]
	}
	return op.Node
}

func (t *tappedTarget) Launch(op *load.Op, station int, done func()) error {
	t.clock++
	if op.Class == load.Insert {
		i := len(t.inserts)
		t.inserts = append(t.inserts, tappedInsert{ev: op.Event, launched: t.clock})
		return t.eng.Insert(op.Node, op.Event, func() {
			t.clock++
			t.inserts[i].acked = t.clock
			done()
		})
	}
	i := len(t.queries)
	t.queries = append(t.queries, tappedQuery{sink: op.Node, q: op.Query, launched: t.clock})
	return t.eng.Query(op.Node, op.Query, func(got []event.Event, _ time.Duration) {
		t.clock++
		t.queries[i].got, t.queries[i].done = got, t.clock
		done()
	})
}

// check judges every completed query. Inserts run beside queries, so
// the oracle works from the clock stamps: an answer must hold every
// matching event acknowledged before the query was launched and may
// hold those launched before it completed.
func (t *tappedTarget) check(r *run, preload []placedEvent) {
	or := newOracle()
	for _, pe := range preload {
		or.add(pe.ev, 0, 0)
	}
	for _, in := range t.inserts {
		acked := in.acked
		if acked == 0 {
			acked = -1
		}
		or.add(in.ev, in.launched, acked)
	}
	for qi, tq := range t.queries {
		if tq.done == 0 {
			continue // still queued at the drain deadline: load.abandoned
		}
		r.verify(or, fmt.Sprintf("load query %d", qi), tq.q, tq.got, tq.launched, tq.done, true, qi%sampleEvery == 0)
	}
}

// loadOpenBatch is one batch of load_open: the five rates in turn.
func loadOpenBatch(r *run, b int) {
	src := batchSource(r.seed, "load_open", b)
	preload := genEvents(src, syncNodes, syncNodes*eventsPerNode, false)
	for i := range preload {
		preload[i].ev.Seq += preloadSeqBase
	}
	envSeed, loadSeed := deploymentSeed("load_open", b), src.Int63()
	horizon := time.Duration(float64(loadHorizon) * r.scale)

	for ri, rate := range loadRates {
		var env *actorEnv
		var target *tappedTarget
		// Built as load.Deploy builds "pool-actor": preload through the
		// radio, drained before the load clock starts, then service mode.
		r.timeSetup(1, func() {
			env = buildActorEnv(r, syncNodes, rng.New(envSeed+int64(ri)))
			r.sp.in("node", "preload", b, func() {
				for _, pe := range preload {
					must(env.eng.Insert(pe.origin, pe.ev, nil))
				}
				env.sched.Run()
			})
			env.eng.EnableService(load.DefaultCost.PerMessage)
			target = &tappedTarget{eng: env.eng}
		})
		eng, err := load.NewEngine(env.sched, target, syncNodes, load.Config{
			Seed: loadSeed + int64(ri), Mode: load.Open, Arrival: load.Poisson, Rate: rate,
			Duration: horizon, Dims: dims, Mix: load.DefaultMix, Skew: 0.8, Bins: 64,
			Admission: load.AdmissionConfig{Policy: load.AdmitAll}, SLO: load.DefaultSLO,
		})
		must(err)
		virt0, exec0 := env.sched.Now(), env.sched.Executed()
		before := env.net.Snapshot()
		if r.sp != nil {
			// The load engine drives the scheduler itself, so the traced
			// pass samples the pending set from a timer of its own.
			var tick func()
			tick = func() {
				r.maxOf("sim.pending_max", float64(env.sched.Pending()))
				if env.sched.Now() < virt0+horizon {
					env.sched.After(time.Second, tick)
				}
			}
			env.sched.After(time.Second, tick)
		}
		var rep *load.Report
		wall0 := r.batchWall
		r.segment(int(rate*horizon.Seconds()), func() {
			id := r.sp.begin(r.sp.kind("load", "run"), ri)
			rep, err = eng.Run()
			r.sp.end(id)
		})
		if err != nil {
			r.fail("load run at rate %g: %v", rate, err)
			continue
		}
		wall := r.batchWall - wall0
		r.sample("virt_s_per_wall_s", (env.sched.Now()-virt0).Seconds()/wall)
		r.sample("sim.events_per_s", float64(env.sched.Executed()-exec0)/wall)
		r.sample(rateKey("load.run_wall_ms", ri), wall*1e3)
		loadCounts(r, ri, rep, env, exec0, before)

		r.attempt(int(rep.Offered))
		for _, err := range env.eng.Errors() {
			r.fail("engine at rate %g: %v", rate, err)
		}
		target.check(r, preload)
		if r.sp != nil && r.pinned() {
			replayKernel(r, env.sched.Executed()-exec0, int(r.sum["sim.pending_max"]))
			replayActor(r, env, len(target.queries), func(i int) (int, event.Query) {
				return target.queries[i].sink, target.queries[i].q
			})
		}
	}
	r.endBatch()
}

// rateKey names a per-rate value: load.run_wall_ms_r40 and the like.
func rateKey(prefix string, ri int) string {
	return prefix + "_r" + strconv.Itoa(int(loadRates[ri]))
}

// loadCounts adds one rate's modelled outcome to the pinned sums.
func loadCounts(r *run, ri int, rep *load.Report, env *actorEnv, exec0 uint64, before network.Counters) {
	if !r.pinned() {
		return
	}
	d := env.net.Diff(before)
	queries := rep.PerClass[load.PointQuery].Served + rep.PerClass[load.RangeQuery].Served
	r.count("pool.qmsgs", float64(d.Messages[network.KindQuery]+d.Messages[network.KindReply]))
	r.count("pool.queries", float64(queries))
	r.count("node.query_events", float64(env.sched.Executed()-exec0))
	r.count("sim.events", float64(env.sched.Executed()-exec0))
	r.count("ops", float64(rep.Offered))
	r.count("load.offered", float64(rep.Offered))
	r.count("load.served", float64(rep.Served))
	r.count("load.shed", float64(rep.Shed))
	r.count("load.abandoned", float64(rep.Abandoned))
	r.count("load.slo_windows", float64(rep.SLOWindows))
	r.count("load.slo_ok", float64(rep.SLOOK))
	r.maxOf("load.max_depth", float64(rep.MaxDepth))
	r.maxOf("node.queue_depth_max", float64(env.eng.MaxQueueDepth()))
	r.count("node.errors", float64(len(env.eng.Errors())))
	countTraffic(r, env.net, before)
	// Per-rate latency: pooled over the pinned batches.
	lat := rep.QueryLatency()
	r.count(rateKey("load.p50_sum", ri), float64(lat.Quantile(50)))
	r.count(rateKey("load.p99_sum", ri), float64(lat.Quantile(99)))
	r.count(rateKey("load.batches", ri), 1)
	if rep.SLOOK == rep.SLOWindows && rep.Abandoned == 0 {
		r.count(rateKey("load.in_slo", ri), 1)
	}
}
