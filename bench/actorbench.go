package main

import (
	"fmt"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// Pinned sizes of actor_wave. A wave is 3 inserts per node submitted
// at once and drained, then rounds of concurrent queries, each drained.
const (
	actorNodes       = 3600
	actorWaves       = 4 // per batch, on one engine
	actorQueryRounds = 5 // per wave
	actorQueries     = 400
	actorSetupReps   = 3
)

// actorEnv is an actor-engine deployment wired as experiment.AsyncScale.
type actorEnv struct {
	layout *field.Layout
	router *gpsr.Router
	sched  *sim.Scheduler
	net    *network.Network
	eng    *node.Engine
}

func buildActorEnv(r *run, n int, src *rng.Source, opts ...node.Option) *actorEnv {
	env := &actorEnv{}
	env.layout, env.router = buildSubstrate(r, n, src.Fork("layout"))
	r.sp.in("sim", "new", r.b, func() { env.sched = sim.NewScheduler() })
	r.sp.in("network", "new", r.b, func() { env.net = network.New(env.layout) })
	r.sp.in("node", "new", r.b, func() {
		var err error
		env.eng, err = node.NewEngine(env.net, env.router, env.sched, dims, src.Fork("pivots"), nil, opts...)
		must(err)
	})
	return env
}

// drain runs the scheduler dry. On the traced pass it does so in
// slices of virtual time, sampling the pending set between them.
func drain(r *run, sched *sim.Scheduler, slice time.Duration) {
	if r.sp == nil {
		sched.Run()
		return
	}
	id := r.sp.begin(r.sp.kind("sim", "run"), r.b)
	for sched.Pending() > 0 {
		r.maxOf("sim.pending_max", float64(sched.Pending()))
		must(sched.RunUntil(sched.Now()+slice, 0))
	}
	r.sp.end(id)
}

// actorWaveBatch is one batch of actor_wave.
func actorWaveBatch(r *run, b int) {
	src := batchSource(r.seed, "actor_wave", b)
	waves := actorWaves
	perWave := r.scaled(actorNodes * eventsPerNode)
	nq := r.scaled(actorQueries)
	inserts := genEvents(src, actorNodes, waves*perWave, false)
	qgen := workload.NewQueries(src.Fork("queries"), dims)
	ssrc := src.Fork("sinks")
	queries := make([]placedQuery, waves*actorQueryRounds*nq)
	for i := range queries {
		queries[i] = placedQuery{sink: ssrc.Intn(actorNodes), q: qgen.ExactMatch(workload.ExponentialSizes)}
	}

	envSeed := deploymentSeed("actor_wave", b)
	var env *actorEnv
	r.timeSetup(actorSetupReps, func() { env = buildActorEnv(r, actorNodes, rng.New(envSeed)) })

	or := newOracle()
	type answer struct {
		got     []event.Event
		done    bool
		elapsed time.Duration
		upTo    int
	}
	answers := make([]answer, len(queries))
	acked := 0
	var qmsgs, qevents uint64
	kInsert := r.sp.kind("node", "insert_submit")
	kQuery := r.sp.kind("node", "query_submit")
	virt0, exec0 := env.sched.Now(), env.sched.Executed()
	before := env.net.Snapshot()
	r.timeRun(len(inserts)+len(queries), func() {
		qi := 0
		for w := 0; w < waves; w++ {
			for i, pe := range inserts[w*perWave : (w+1)*perWave] {
				ev := pe.ev
				id := r.sp.begin(kInsert, w*perWave+i)
				err := env.eng.Insert(pe.origin, ev, func() { or.ack(ev); acked++ })
				r.sp.end(id)
				if err != nil {
					r.fail("insert: %v", err)
				}
			}
			drain(r, env.sched, 10*time.Millisecond)
			for round := 0; round < actorQueryRounds; round++ {
				m0, e0 := queryTraffic(env.net), env.sched.Executed()
				for k := 0; k < nq; k++ {
					a := &answers[qi]
					a.upTo = len(or.events)
					pq := queries[qi]
					id := r.sp.begin(kQuery, len(inserts)+qi)
					err := env.eng.Query(pq.sink, pq.q, func(got []event.Event, elapsed time.Duration) {
						a.got, a.done, a.elapsed = got, true, elapsed
					})
					r.sp.end(id)
					if err != nil {
						r.fail("query %d: %v", qi, err)
					}
					qi++
				}
				drain(r, env.sched, 10*time.Millisecond)
				qmsgs += queryTraffic(env.net) - m0
				qevents += env.sched.Executed() - e0
			}
		}
	})
	virt := env.sched.Now() - virt0
	r.sample("virt_s_per_wall_s", virt.Seconds()/r.wallS[len(r.wallS)-1])
	r.sample("sim.events_per_s", float64(env.sched.Executed()-exec0)/r.wallS[len(r.wallS)-1])
	r.count("sim.events", float64(env.sched.Executed()-exec0))
	r.count("ops", float64(len(inserts)+len(queries)))
	r.count("pool.qmsgs", float64(qmsgs))
	r.count("pool.queries", float64(len(queries)))
	r.count("node.query_events", float64(qevents))
	r.count("node.errors", float64(len(env.eng.Errors())))
	countTraffic(r, env.net, before)

	r.attempt(len(inserts) + len(queries))
	for i := acked; i < len(inserts); i++ {
		r.fail("insert never acknowledged")
	}
	for _, err := range env.eng.Errors() {
		r.fail("engine: %v", err)
	}
	for i, a := range answers {
		if !a.done {
			r.fail("query %d never completed", i)
			continue
		}
		if r.pinned() {
			r.sample("virt_query_ms", float64(a.elapsed)/float64(time.Millisecond))
		}
		r.verify(or, fmt.Sprintf("query %d", i), queries[i].q, a.got, a.upTo, a.upTo, true, i%sampleEvery == 0)
	}
	if r.sp != nil && r.pinned() {
		replayKernel(r, env.sched.Executed()-exec0, int(r.sum["sim.pending_max"]))
		replayActor(r, env, len(queries), func(i int) (int, event.Query) { return queries[i].sink, queries[i].q })
	}
}
