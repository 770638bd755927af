package main

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/ght"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/systemtest"
	"pooldcs/internal/workload"
)

// Pinned sizes of the two synchronous workloads. One batch is sized to
// take about a second on the 2-core reference box, so a run of
// BENCHMARK.json's run_seconds holds eight or more batches and its
// medians are steady.
const (
	dims          = 3
	syncNodes     = 900
	eventsPerNode = workload.DefaultEventsPerNode

	rangeQueriesPerSystem = 5000 // per batch, cycling the four §5 shapes
	rangeChunk            = 1000 // queries per system between answer checks
	rangeSetupReps        = 3    // fresh builds timed per batch

	ingestInsertsPerSystem = 54000 // per batch; a point query follows every 2nd insert
	ingestSetupReps        = 9     // an empty deployment builds in 3 ms: more samples
)

// queryShapes are the four §5 query shapes sync_range cycles through.
var queryShapes = [4]string{"exact_uniform", "exact_exp", "partial1", "partial2"}

// batchSource derives the random source of one batch's traffic —
// events, queries, sinks, arrival times — from the run's seed.
func batchSource(seed int64, name string, b int) *rng.Source {
	return rng.New(seed).Fork(fmt.Sprintf("%s/%d", name, b))
}

// deploymentSeed seeds one batch's deployment: the layout, the Pool
// pivots and, on churn_repair, the fault plan. It depends on the batch
// number alone. Runs of different seeds therefore meet the same
// sequence of deployments and differ only in traffic (common random
// numbers): how far a node is from its Pools moves a batch's cost by a
// fifth, and drawn afresh per seed that would drown a 10 % change.
func deploymentSeed(name string, b int) int64 {
	return rng.New(0).Fork(fmt.Sprintf("%s/deployment/%d", name, b)).Int63()
}

// buildSubstrate generates a connected layout and a planarised router
// (the first PlanarNeighbors call does the planarisation).
func buildSubstrate(r *run, n int, src *rng.Source) (*field.Layout, *gpsr.Router) {
	var layout *field.Layout
	r.sp.in("field", "generate", r.b, func() {
		var err error
		if layout, err = field.Generate(field.DefaultSpec(n), src); err != nil {
			panic(fmt.Errorf("bench: layout: %w", err))
		}
	})
	var router *gpsr.Router
	r.sp.in("gpsr", "planarize", r.b, func() {
		router = gpsr.New(layout)
		router.PlanarNeighbors(0)
	})
	return layout, router
}

// placedEvent is an event with its detecting sensor.
type placedEvent struct {
	origin int
	ev     event.Event
}

// placedQuery is a query with its sink and shape (an index into
// queryShapes, or -1 for a point query).
type placedQuery struct {
	sink  int
	q     event.Query
	shape int
}

// genEvents draws count events detected round-robin at the n sensors
// (so count = 3n is the paper's three per sensor) or at random origins.
func genEvents(src *rng.Source, n, count int, randomOrigin bool) []placedEvent {
	gen := workload.NewUniformEvents(src.Fork("events"), dims)
	osrc := src.Fork("origins")
	out := make([]placedEvent, count)
	for i := range out {
		origin := i % n
		if randomOrigin {
			origin = osrc.Intn(n)
		}
		out[i] = placedEvent{origin: origin, ev: gen.Next()}
	}
	return out
}

// genRangeQueries draws count queries cycling the four shapes.
func genRangeQueries(src *rng.Source, n, count int) []placedQuery {
	qgen := workload.NewQueries(src.Fork("queries"), dims)
	ssrc := src.Fork("sinks")
	out := make([]placedQuery, count)
	for i := range out {
		shape := i % len(queryShapes)
		var q event.Query
		switch shape {
		case 0:
			q = qgen.ExactMatch(workload.UniformSizes)
		case 1:
			q = qgen.ExactMatch(workload.ExponentialSizes)
		default:
			var err error
			q, err = qgen.MPartial(shape - 1)
			must(err)
		}
		out[i] = placedQuery{sink: ssrc.Intn(n), q: q, shape: shape}
	}
	return out
}

// queryTraffic is the paper's metric: query plus reply transmissions.
func queryTraffic(net *network.Network) uint64 {
	return net.Messages(network.KindQuery) + net.Messages(network.KindReply)
}

// countTraffic adds a network's counters since before to the modelled
// per-layer sums.
func countTraffic(r *run, net *network.Network, before network.Counters) {
	d := net.Diff(before)
	r.count("net.insert", float64(d.Messages[network.KindInsert]))
	r.count("net.query", float64(d.Messages[network.KindQuery]))
	r.count("net.reply", float64(d.Messages[network.KindReply]))
	r.count("net.control", float64(d.Messages[network.KindControl]))
	var bytes uint64
	for _, b := range d.Bytes {
		bytes += b
	}
	r.count("net.bytes", float64(bytes))
	r.count("net.drops", float64(d.Drops))
}

// rangeEnv is one sync_range deployment: Pool and DIM over separate
// traffic-counting networks and a shared router, as experiment.NewEnv.
type rangeEnv struct {
	layout  *field.Layout
	router  *gpsr.Router
	poolNet *network.Network
	dimNet  *network.Network
	pool    *pool.System
	dim     *dim.System
}

func buildRangeEnv(r *run, src *rng.Source, preload []placedEvent) *rangeEnv {
	env := &rangeEnv{}
	env.layout, env.router = buildSubstrate(r, syncNodes, src.Fork("layout"))
	r.sp.in("network", "new", r.b, func() {
		env.poolNet = network.New(env.layout)
		env.dimNet = network.New(env.layout)
	})
	r.sp.in("pool", "new", r.b, func() {
		var err error
		env.pool, err = pool.New(env.poolNet, env.router, dims, src.Fork("pivots"))
		must(err)
	})
	r.sp.in("dim", "new", r.b, func() {
		var err error
		env.dim, err = dim.New(env.dimNet, env.router, dims)
		must(err)
	})
	r.sp.in("pool", "preload", r.b, func() {
		for _, pe := range preload {
			must(env.pool.Insert(pe.origin, pe.ev))
		}
	})
	r.sp.in("dim", "preload", r.b, func() {
		for _, pe := range preload {
			must(env.dim.Insert(pe.origin, pe.ev))
		}
	})
	return env
}

// queryPass sends every query through one system inside a timed region
// of its own and returns the answers.
func queryPass(r *run, layer string, sys dcs.System, net *network.Network, queries []placedQuery, firstOp int) [][]event.Event {
	var kinds [len(queryShapes)]uint16
	for i, s := range queryShapes {
		kinds[i] = r.sp.kind(layer, "query."+s)
	}
	res := make([][]event.Event, len(queries))
	before := net.Snapshot()
	traffic := queryTraffic(net)
	start := time.Now()
	for i, pq := range queries {
		id := r.sp.begin(kinds[pq.shape], firstOp+i)
		got, err := sys.Query(pq.sink, pq.q)
		r.sp.end(id)
		if err != nil {
			r.fail("%s query %d: %v", layer, firstOp+i, err)
			continue
		}
		res[i] = got
	}
	r.sample(layer+".ops_per_s", float64(len(queries))/time.Since(start).Seconds())
	r.count(layer+".qmsgs", float64(queryTraffic(net)-traffic))
	r.count(layer+".queries", float64(len(queries)))
	r.count(layer+".msgs", float64(net.Diff(before).Total()))
	r.count(layer+".ops", float64(len(queries)))
	r.count("ops", float64(len(queries)))
	countTraffic(r, net, before)
	return res
}

// syncRangeBatch is one batch of sync_range.
func syncRangeBatch(r *run, b int) {
	src := batchSource(r.seed, "sync_range", b)
	preload := genEvents(src, syncNodes, syncNodes*eventsPerNode, false)
	queries := genRangeQueries(src, syncNodes, r.scaled(rangeQueriesPerSystem))

	envSeed := deploymentSeed("sync_range", b)
	var env *rangeEnv
	r.timeSetup(rangeSetupReps, func() { env = buildRangeEnv(r, rng.New(envSeed), preload) })

	or := newOracle()
	for _, pe := range preload {
		or.ack(pe.ev)
	}
	// Answers are checked and dropped chunk by chunk, outside the timed
	// segments, so that the bench's own copy of them stays small beside
	// the program's heap.
	for lo := 0; lo < len(queries); lo += rangeChunk {
		chunk := queries[lo:min(lo+rangeChunk, len(queries))]
		var poolRes, dimRes [][]event.Event
		r.segment(2*len(chunk), func() {
			poolRes = queryPass(r, "pool", env.pool, env.poolNet, chunk, lo)
			dimRes = queryPass(r, "dim", env.dim, env.dimNet, chunk, lo)
		})
		for i, pq := range chunk {
			r.attempt(2)
			full := (lo+i)%sampleEvery == 0
			n := len(or.events)
			pv, _ := r.verify(or, fmt.Sprintf("pool query %d", lo+i), pq.q, poolRes[i], n, n, true, full)
			dv, _ := r.verify(or, fmt.Sprintf("dim query %d", lo+i), pq.q, dimRes[i], n, n, true, full)
			if !pv.failed() && !dv.failed() && digestOf(poolRes[i]) != digestOf(dimRes[i]) {
				r.fail("query %d %v: pool and dim result sets differ", lo+i, pq.q)
			}
			r.count("pool.results", float64(len(poolRes[i])))
		}
	}
	r.endBatch()
	if r.sp != nil && r.pinned() {
		replayRange(r, env, queries)
	}
}

// ingestSystem is one storage scheme under sync_ingest.
type ingestSystem struct {
	layer string
	sys   dcs.System
	net   *network.Network
}

// syncIngestBatch is one batch of sync_ingest: for each of the three
// schemes, inserts from random origins into an empty system with a
// point query for an already inserted event after every second insert.
func syncIngestBatch(r *run, b int) {
	src := batchSource(r.seed, "sync_ingest", b)
	inserts := genEvents(src, syncNodes, r.scaled(ingestInsertsPerSystem), true)
	// Query j follows insert 2j+1 and asks for one of the events
	// inserted so far.
	psrc := src.Fork("picks")
	ssrc := src.Fork("sinks")
	queries := make([]placedQuery, len(inserts)/2)
	for j := range queries {
		pick := inserts[psrc.Intn(2*j+2)].ev
		queries[j] = placedQuery{sink: ssrc.Intn(syncNodes), q: systemtest.PointQueryFor(pick), shape: -1}
	}

	envSeed := deploymentSeed("sync_ingest", b)
	var systems [3]ingestSystem
	var layout *field.Layout
	var router *gpsr.Router
	r.timeSetup(ingestSetupReps, func() {
		src := rng.New(envSeed)
		layout, router = buildSubstrate(r, syncNodes, src.Fork("layout"))
		var nets [3]*network.Network
		r.sp.in("network", "new", b, func() {
			for i := range nets {
				nets[i] = network.New(layout)
			}
		})
		r.sp.in("pool", "new", b, func() {
			p, err := pool.New(nets[0], router, dims, src.Fork("pivots"))
			must(err)
			systems[0] = ingestSystem{"pool", p, nets[0]}
		})
		r.sp.in("dim", "new", b, func() {
			d, err := dim.New(nets[1], router, dims)
			must(err)
			systems[1] = ingestSystem{"dim", d, nets[1]}
		})
		r.sp.in("ght", "new", b, func() {
			systems[2] = ingestSystem{"ght", ght.New(nets[2], router), nets[2]}
		})
	})

	results := make([][][]event.Event, len(systems))
	ops := len(inserts) + len(queries)
	r.timeRun(len(systems)*ops, func() {
		for si, s := range systems {
			results[si] = ingestPass(r, s, inserts, queries)
		}
	})

	or := newOracle()
	for _, pe := range inserts {
		or.ack(pe.ev)
	}
	for si, s := range systems {
		for j, pq := range queries {
			r.attempt(3) // the query and the two inserts before it
			r.verify(or, fmt.Sprintf("%s point query %d", s.layer, j), pq.q, results[si][j], 2*j+2, 2*j+2, true, j%sampleEvery == 0)
			if si == 0 {
				r.count("pool.results", float64(len(results[si][j])))
			}
		}
	}
	r.count("pool.stored", float64(systems[0].sys.(*pool.System).Stats().StoredEvents))
	if r.sp != nil && r.pinned() {
		replayIngest(r, systems[0].sys.(*pool.System), systems[1].sys.(*dim.System), systems[2].sys.(*ght.System),
			layout, router, inserts, queries)
	}
}

// ingestPass drives one scheme through the insert/query list inside a
// timed region of its own and returns the query answers.
func ingestPass(r *run, s ingestSystem, inserts []placedEvent, queries []placedQuery) [][]event.Event {
	kInsert := r.sp.kind(s.layer, "insert")
	kQuery := r.sp.kind(s.layer, "query.point")
	res := make([][]event.Event, len(queries))
	before := s.net.Snapshot()
	start := time.Now()
	for i, pe := range inserts {
		id := r.sp.begin(kInsert, i)
		err := s.sys.Insert(pe.origin, pe.ev)
		r.sp.end(id)
		if err != nil {
			r.fail("%s insert %d: %v", s.layer, i, err)
		}
		if i%2 == 1 {
			j := i / 2
			pq := queries[j]
			id := r.sp.begin(kQuery, len(inserts)+j)
			got, err := s.sys.Query(pq.sink, pq.q)
			r.sp.end(id)
			if err != nil {
				r.fail("%s point query %d: %v", s.layer, j, err)
				continue
			}
			res[j] = got
		}
	}
	r.sample(s.layer+".ops_per_s", float64(len(inserts)+len(queries))/time.Since(start).Seconds())
	d := s.net.Diff(before)
	r.count(s.layer+".qmsgs", float64(d.Messages[network.KindQuery]+d.Messages[network.KindReply]))
	r.count(s.layer+".queries", float64(len(queries)))
	r.count(s.layer+".msgs", float64(d.Total()))
	r.count(s.layer+".ops", float64(len(inserts)+len(queries)))
	r.count("ops", float64(len(inserts)+len(queries)))
	countTraffic(r, s.net, before)
	return res
}
