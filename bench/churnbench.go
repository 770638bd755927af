package main

import (
	"io"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/attrib"
	"pooldcs/internal/chaos"
	"pooldcs/internal/dcs"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

// Pinned sizes of churn_repair, after the repl and node universes of
// experiment/churn.go.
const (
	churnHorizon     = 150 * time.Second // virtual time per batch
	churnCrashFrac   = 0.10
	churnRecoverFrac = 0.25
	churnBursts      = 2
	churnBurstLoss   = 0.3
	churnBeacon      = time.Second
	churnService     = 2 * time.Millisecond
	churnProbePeriod = 250 * time.Millisecond
	churnTraceRing   = 1 << 18
	churnSetupReps   = 3
)

// churnUniverse is one system under churn with its own radio, router,
// beacons and chaos engine, on the shared scheduler.
type churnUniverse struct {
	net    *network.Network
	router *gpsr.Router
	reg    *metrics.Registry
	disc   *discovery.Protocol
	chaos  *chaos.Engine
}

// churnEnv is both universes of one batch.
type churnEnv struct {
	layout *field.Layout
	sched  *sim.Scheduler
	repl   churnUniverse
	pool   *pool.System
	ae     *antientropy.Reconciler
	actor  churnUniverse
	eng    *node.Engine
	flight *trace.Tracer
}

// buildChurnEnv wires the two universes. telemetry selects the product
// telemetry: per-universe registries and the flight recorder.
func buildChurnEnv(r *run, src *rng.Source, preload []placedEvent, telemetry bool) *churnEnv {
	env := &churnEnv{}
	r.sp.in("field", "generate", r.b, func() {
		var err error
		env.layout, err = field.Generate(field.DefaultSpec(syncNodes), src.Fork("layout"))
		must(err)
	})
	env.sched = sim.NewScheduler()
	universe := func(name string, mk func(u *churnUniverse) chaos.System, kick func()) churnUniverse {
		var u churnUniverse
		if telemetry {
			u.reg = metrics.New()
		}
		r.sp.in("network", "new", r.b, func() { u.net = network.New(env.layout, network.WithMetrics(u.reg)) })
		r.sp.in("gpsr", "planarize", r.b, func() {
			u.router = gpsr.New(env.layout)
			u.router.PlanarNeighbors(0)
		})
		sys := mk(&u)
		r.sp.in("discovery", "new", r.b, func() {
			u.disc = discovery.New(u.net, env.sched, src.Fork("beacons-"+name), discovery.Config{Interval: churnBeacon})
			u.disc.EnableMetrics(u.reg)
		})
		r.sp.in("chaos", "new", r.b, func() {
			u.chaos = chaos.NewEngine(env.sched, u.net, u.router, []chaos.System{sys},
				chaos.WithFailureDetection(u.disc), chaos.WithMetrics(u.reg),
				chaos.WithRecoveryHook(func(int) { kick() }))
		})
		return u
	}
	env.repl = universe("repl", func(u *churnUniverse) chaos.System {
		r.sp.in("pool", "new", r.b, func() {
			var err error
			env.pool, err = pool.New(u.net, u.router, dims, src.Fork("pivots-repl"), pool.WithReplication(), pool.WithMetrics(u.reg))
			must(err)
		})
		return env.pool
	}, func() { env.ae.Kick() })
	r.sp.in("antientropy", "new", r.b, func() {
		env.ae = antientropy.New(env.sched, env.repl.net, env.repl.router, antientropy.Config{}, env.pool)
		env.ae.EnableMetrics(env.repl.reg)
	})
	env.actor = universe("node", func(u *churnUniverse) chaos.System {
		r.sp.in("node", "new", r.b, func() {
			var err error
			env.eng, err = node.NewEngine(u.net, u.router, env.sched, dims, src.Fork("pivots-node"), nil, node.WithReplication())
			must(err)
			env.eng.EnableService(churnService)
			env.eng.EnableMetrics(u.reg)
		})
		return env.eng
	}, func() {})
	if telemetry {
		env.flight = trace.NewRing(env.sched, churnTraceRing)
		env.eng.SetTracer(env.flight)
	}
	r.sp.in("pool", "preload", r.b, func() {
		for _, pe := range preload {
			must(env.pool.Insert(pe.origin, pe.ev))
		}
	})
	r.sp.in("node", "preload", r.b, func() {
		for _, pe := range preload {
			must(env.eng.Preload(pe.origin, pe.ev))
		}
	})
	return env
}

// probe is one scheduled query and what came back.
type probe struct {
	at       time.Duration
	sink     int
	q        event.Query
	got      []event.Event
	comp     dcs.Completeness
	elapsed  time.Duration
	done     bool
	err      error
	universe string
}

// churnRepairBatch is one batch of churn_repair with the product
// telemetry on, which is the workload as BENCHMARK.json defines it.
func churnRepairBatch(r *run, b int) { churnBatch(r, b, true) }

// churnBatch runs one churn horizon over both universes.
func churnBatch(r *run, b int, telemetry bool) {
	src := batchSource(r.seed, "churn_repair", b)
	horizon := time.Duration(float64(churnHorizon) * r.scale).Truncate(churnProbePeriod)
	if horizon < 4*churnProbePeriod {
		horizon = 4 * churnProbePeriod
	}
	preload := genEvents(src, syncNodes, syncNodes*eventsPerNode, false)
	envSeed := deploymentSeed("churn_repair", b)
	dsrc := rng.New(envSeed ^ 1)
	plan := chaos.RandomChurn(dsrc.Fork("churn"), syncNodes, churnCrashFrac, churnRecoverFrac, horizon)
	qgen := workload.NewQueries(src.Fork("probe-queries"), dims)
	ssrc := src.Fork("probe-sinks")
	nProbes := int(horizon / churnProbePeriod)
	probes := make([]probe, 0, 2*nProbes)
	for pi := 0; pi < nProbes; pi++ {
		at := time.Duration(pi)*churnProbePeriod + churnProbePeriod/2
		sink, q := ssrc.Intn(syncNodes), qgen.ExactMatch(workload.UniformSizes)
		probes = append(probes, probe{at: at, sink: sink, q: q, universe: "repl"}, probe{at: at, sink: sink, q: q, universe: "node"})
	}
	bsrc := dsrc.Fork("bursts")

	var env *churnEnv
	r.timeSetup(churnSetupReps, func() { env = buildChurnEnv(r, rng.New(envSeed), preload, telemetry) })
	for i := 0; i < churnBursts; i++ {
		at := time.Duration(bsrc.Float64() * 0.8 * float64(horizon))
		cx, cy := bsrc.Uniform(0, env.layout.Side), bsrc.Uniform(0, env.layout.Side)
		rad := env.layout.Side * 0.1
		plan.Burst(at, geo.RectFromCorners(geo.Pt(cx-rad, cy-rad), geo.Pt(cx+rad, cy+rad)), churnBurstLoss, horizon/10)
	}

	kPool := r.sp.kind("pool", "query_report")
	kNode := r.sp.kind("node", "query_submit")
	exec0 := env.sched.Executed()
	r.timeRun(len(probes), func() {
		for _, u := range []*churnUniverse{&env.repl, &env.actor} {
			must(u.chaos.Schedule(plan))
		}
		for i := range probes {
			p := &probes[i]
			must(env.sched.At(p.at, func() {
				if p.universe == "repl" {
					for env.repl.chaos.Down(p.sink) {
						p.sink = (p.sink + 1) % syncNodes
					}
					id := r.sp.begin(kPool, i)
					p.got, p.comp, p.err = env.pool.QueryWithReport(p.sink, p.q)
					r.sp.end(id)
					p.done = true
					return
				}
				for env.actor.chaos.Down(p.sink) {
					p.sink = (p.sink + 1) % syncNodes
				}
				id := r.sp.begin(kNode, i)
				p.err = env.eng.QueryWithReport(p.sink, p.q, func(got []event.Event, comp dcs.Completeness, elapsed time.Duration) {
					p.got, p.comp, p.elapsed, p.done = got, comp, elapsed, true
				})
				r.sp.end(id)
			}))
		}
		env.repl.disc.Start()
		env.actor.disc.Start()
		env.ae.Start()
		must(env.sched.At(horizon, func() {
			env.repl.disc.Stop()
			env.actor.disc.Stop()
			env.ae.Stop()
		}))
		drain(r, env.sched, time.Second)
		if telemetry {
			churnTelemetry(r, env, horizon)
		}
	})
	wall := r.wallS[len(r.wallS)-1]
	r.sample("virt_s_per_wall_s", env.sched.Now().Seconds()/wall)
	r.sample("sim.events_per_s", float64(env.sched.Executed()-exec0)/wall)
	churnCounts(r, env, exec0, len(probes))

	// One oracle per universe: each knows which events its store lost.
	oracles := map[string]*oracle{"repl": newOracle(), "node": newOracle()}
	for _, or := range oracles {
		for _, pe := range preload {
			or.ack(pe.ev)
		}
	}
	oracles["repl"].lost = lostEvents(preload, func(sink int, q event.Query) ([]event.Event, dcs.Completeness, error) {
		return env.pool.QueryWithReport(sink, q)
	}, env.repl.chaos)
	oracles["node"].lost = lostEvents(preload, func(sink int, q event.Query) (got []event.Event, comp dcs.Completeness, err error) {
		err = env.eng.QueryWithReport(sink, q, func(g []event.Event, c dcs.Completeness, _ time.Duration) { got, comp = g, c })
		env.sched.Run()
		return got, comp, err
	}, env.actor.chaos)
	r.attempt(len(probes))
	for i := range probes {
		p := &probes[i]
		switch {
		case p.err != nil:
			r.fail("%s probe at %v: %v", p.universe, p.at, p.err)
			continue
		case !p.done:
			r.fail("%s probe at %v never completed", p.universe, p.at)
			continue
		}
		or := oracles[p.universe]
		v, recall := or.check(p.q, p.got, len(or.events), len(or.events), p.comp.Complete(), true)
		switch {
		case v == answerShort:
			r.overreport("%s probe at %v %v: %d events, recall %.3f, reported %+v", p.universe, p.at, p.q, len(p.got), recall, p.comp)
		case v.failed():
			r.fail("%s probe at %v %v: %v (%d events)", p.universe, p.at, p.q, v, len(p.got))
		}
		r.count("recall_sum", recall)
		r.count("probes", 1)
		if p.universe == "node" && r.pinned() {
			r.sample("virt_query_ms", float64(p.elapsed)/float64(time.Millisecond))
		}
	}
	for _, u := range []*churnUniverse{&env.repl, &env.actor} {
		for _, err := range u.chaos.Errs() {
			r.fail("chaos: %v", err)
		}
	}
	for _, err := range env.eng.Errors() {
		r.fail("engine: %v", err)
	}
	for _, err := range env.ae.Errs() {
		r.fail("anti-entropy: %v", err)
	}
	if r.sp != nil && r.pinned() && telemetry {
		replayKernel(r, env.sched.Executed()-exec0, int(r.sum["sim.pending_max"]))
		replayChurn(r, env, plan)
	}
}

// lostEvents takes a census of a store after its run: a full-range
// query from a live sink. The stored events it no longer returns were
// lost to double faults. A census that is itself incomplete proves
// nothing, and then no event is taken as lost.
func lostEvents(stored []placedEvent, census func(sink int, q event.Query) ([]event.Event, dcs.Completeness, error), down *chaos.Engine) map[uint64]bool {
	sink := 0
	for down.Down(sink) {
		sink++
	}
	all := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	got, comp, err := census(sink, all)
	if err != nil || !comp.Complete() {
		return nil
	}
	have := make(map[uint64]bool, len(got))
	for _, e := range got {
		have[e.Seq] = true
	}
	lost := map[uint64]bool{}
	for _, pe := range stored {
		if !have[pe.ev.Seq] {
			lost[pe.ev.Seq] = true
		}
	}
	return lost
}

// churnTelemetry is the end-of-run use of the product telemetry: the
// flight recorder is analysed and attributed, the registries exposed.
func churnTelemetry(r *run, env *churnEnv, horizon time.Duration) {
	r.sp.in("attrib", "analyze", r.b, func() {
		events := env.flight.Events()
		a, _ := trace.Analyze(events)
		bds := attrib.Attribute(events, a, attrib.Options{})
		r.count("attrib.breakdowns", float64(len(bds)))
		r.count("attrib.repair_windows", float64(len(attrib.RepairWindows(events, horizon))))
	})
	r.sp.in("metrics", "expose", r.b, func() {
		for _, reg := range []*metrics.Registry{env.repl.reg, env.actor.reg} {
			if _, err := reg.Snapshot().WriteTo(io.Discard); err != nil {
				panic(err)
			}
		}
	})
}

// churnCounts adds the batch's modelled outcome to the pinned sums.
func churnCounts(r *run, env *churnEnv, exec0 uint64, probes int) {
	if !r.pinned() {
		return
	}
	r.count("sim.events", float64(env.sched.Executed()-exec0))
	r.count("ops", float64(probes))
	r.count("pool.qmsgs", float64(queryTraffic(env.repl.net)+queryTraffic(env.actor.net)))
	r.count("pool.queries", float64(probes))
	countTraffic(r, env.repl.net, network.Counters{})
	countTraffic(r, env.actor.net, network.Counters{})
	st := env.pool.Stats()
	r.count("pool.stored", float64(st.StoredEvents))
	r.count("pool.mirrored", float64(st.MirroredEvents))
	r.count("pool.recovery_msgs", float64(env.pool.RecoveryMessages()))
	r.count("chaos.crashes", float64(env.repl.chaos.Crashes()))
	r.count("chaos.recoveries", float64(env.repl.chaos.Recoveries()))
	detect := stats.NewIntHistogram()
	detect.Merge(env.repl.chaos.DetectionLatency())
	detect.Merge(env.actor.chaos.DetectionLatency())
	r.count("chaos.detect_p50_sum", float64(detect.Quantile(50)))
	r.count("chaos.detect_p95_sum", float64(detect.Quantile(95)))
	r.count("batches", 1)
	r.count("discovery.beacons", env.repl.reg.Value("discovery_beacons_total")+env.actor.reg.Value("discovery_beacons_total"))
	r.count("ae.sessions", float64(env.ae.Sessions()))
	r.count("ae.symbols", float64(env.ae.Symbols()))
	r.count("ae.bytes", float64(env.ae.Bytes()))
	r.count("ae.fallbacks", float64(env.ae.Fallbacks()))
	r.count("ae.aborted", float64(env.ae.Aborted()))
	r.count("ae.moved", float64(env.ae.EventsMoved()))
	rep := env.eng.RepairLatency()
	msgs, bytes := env.eng.RepairTraffic()
	r.count("node.repairs", float64(rep.Total()))
	r.count("node.repair_msgs", float64(msgs))
	r.count("node.repair_bytes", float64(bytes))
	r.count("node.repair_p50_sum", float64(rep.Quantile(50)))
	r.count("node.repair_p95_sum", float64(rep.Quantile(95)))
	r.maxOf("node.queue_depth_max", float64(env.eng.MaxQueueDepth()))
	r.count("node.errors", float64(len(env.eng.Errors())))
	if env.flight != nil {
		r.count("trace.events", float64(env.flight.Len()))
		r.count("trace.dropped", float64(env.flight.Dropped()))
	}
}
