package pooldcs

// Benchmark harness: the headline figure (Figure 6(a)) regenerated end to
// end with its metric reported via ReportMetric, and micro-benchmarks of
// the hot paths, several of them gated (bench_micro_baseline.json). The
// other figures and the ablation tables are timed per table by the
// repository benchmark's tables_all workload (bench/), not here.

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/attrib"
	"pooldcs/internal/chaos"
	"pooldcs/internal/dim"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

// benchConfig keeps figure benchmarks affordable per iteration while
// using the paper's network sizes.
func benchConfig() experiment.Config {
	cfg := experiment.Default()
	cfg.Queries = 25
	return cfg
}

// lastRowMetric extracts column col of the last table row as a float.
func lastRowMetric(b *testing.B, res *experiment.Result, col int) float64 {
	b.Helper()
	rows := res.Table.Rows
	if len(rows) == 0 {
		b.Fatal("no rows")
	}
	v, err := strconv.ParseFloat(rows[len(rows)-1][col], 64)
	if err != nil {
		b.Fatalf("bad cell: %v", err)
	}
	return v
}

func BenchmarkFig6a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig6(cfg, workload.UniformSizes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowMetric(b, res, 1), "dim-msgs/query")
		b.ReportMetric(lastRowMetric(b, res, 2), "pool-msgs/query")
	}
}

// --- Micro-benchmarks of the hot paths ---

// benchPair is the two systems of the paper's comparison, built as the
// experiment tables build them.
type benchPair struct {
	Pool *pool.System
	DIM  *dim.System
}

func benchEnv(b *testing.B, n int) benchPair {
	b.Helper()
	_, p, d, err := experiment.NewEnv(n, 3, rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	return benchPair{Pool: p, DIM: d}
}

// BenchmarkPoolInsert is one Theorem-3.1 insert end to end on N=300 —
// the event built, routed to its index node and stored — gated in
// `make micro-bench`.
func BenchmarkPoolInsert(b *testing.B) {
	src := rng.New(99)
	env, err := experiment.Deploy(300, 3, src)
	if err != nil {
		b.Fatal(err)
	}
	p, err := env.AddPool("Pool", src.Fork("pivots"), nil)
	if err != nil {
		b.Fatal(err)
	}
	gen := rng.New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := gen.Intn(300)
		e := event.Event{Values: []float64{gen.Float64(), gen.Float64(), gen.Float64()}, Seq: uint64(i + 1)}
		if err := p.Insert(origin, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDIMInsert(b *testing.B) {
	env := benchEnv(b, 900)
	gen := workload.NewUniformEvents(rng.New(5), 3)
	origin := rng.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.DIM.Insert(origin.Intn(900), gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolQuery(b *testing.B) {
	env := benchEnv(b, 900)
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < 2700; i++ {
		if err := env.Pool.Insert(i%900, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	qgen := workload.NewQueries(rng.New(7), 3)
	sink := rng.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Pool.Query(sink.Intn(900), qgen.ExactMatch(workload.ExponentialSizes)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDIMQuery(b *testing.B) {
	env := benchEnv(b, 900)
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < 2700; i++ {
		if err := env.DIM.Insert(i%900, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	qgen := workload.NewQueries(rng.New(7), 3)
	sink := rng.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.DIM.Query(sink.Intn(900), qgen.ExactMatch(workload.ExponentialSizes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQuerySteady is the steady state of the Fig 6/7 query
// path: N=900, three events per node, the four §5 query shapes cycling
// over a fixed query list that has already run once, so reply buffers,
// path buffers and the route memo are warm. What is left to allocate per
// query is the caller's exact-size result (plus DIM's rewritten query);
// `make micro-bench` gates that count.
func BenchmarkRangeQuerySteady(b *testing.B) {
	env := benchEnv(b, 900)
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < 3*900; i++ {
		e := gen.Next()
		if err := env.Pool.Insert(i%900, e); err != nil {
			b.Fatal(err)
		}
		if err := env.DIM.Insert(i%900, e); err != nil {
			b.Fatal(err)
		}
	}
	qgen := workload.NewQueries(rng.New(7), 3)
	sinks := rng.New(8)
	type placed struct {
		sink int
		q    event.Query
	}
	queries := make([]placed, 1024)
	for i := range queries {
		var q event.Query
		switch i % 4 {
		case 0:
			q = qgen.ExactMatch(workload.UniformSizes)
		case 1:
			q = qgen.ExactMatch(workload.ExponentialSizes)
		default:
			var err error
			if q, err = qgen.MPartial(i%4 - 1); err != nil {
				b.Fatal(err)
			}
		}
		queries[i] = placed{sink: sinks.Intn(900), q: q}
	}
	for _, sys := range []struct {
		name  string
		query func(sink int, q event.Query) ([]event.Event, error)
	}{
		{"pool", env.Pool.Query},
		{"dim", env.DIM.Query},
	} {
		b.Run(sys.name, func(b *testing.B) {
			for _, pq := range queries {
				if _, err := sys.query(pq.sink, pq.q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pq := queries[i%len(queries)]
				if _, err := sys.query(pq.sink, pq.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkActorQuerySteady is the steady state of the actor engine's
// query path: N=900, three preloaded events per node, and one iteration is
// a wave of 64 concurrent exponential-size range queries drained to
// completion. The wave has run often enough beforehand that every recycled
// record has met its largest query, so what is left to allocate per wave
// is each query's callback wrapper, its exact-size result and one snapshot
// per cell that had a match; `make micro-bench` gates that count.
func BenchmarkActorQuerySteady(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	eng, err := node.NewEngine(network.New(layout), gpsr.New(layout), sched, 3, rng.New(4), nil)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < 3*900; i++ {
		if err := eng.Preload(i%900, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	qgen := workload.NewQueries(rng.New(7), 3)
	sinks := rng.New(8)
	type placed struct {
		sink int
		q    event.Query
	}
	queries := make([]placed, 64)
	for i := range queries {
		queries[i] = placed{sink: sinks.Intn(900), q: qgen.ExactMatch(workload.ExponentialSizes)}
	}
	answered := 0
	onDone := func([]event.Event, time.Duration) { answered++ }
	wave := func() {
		for _, pq := range queries {
			if err := eng.Query(pq.sink, pq.q, onDone); err != nil {
				b.Fatal(err)
			}
		}
		sched.Run()
	}
	const warm = 128
	for i := 0; i < warm; i++ {
		wave()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	if want := (warm + b.N) * len(queries); answered != want {
		b.Fatalf("%d of %d queries answered", answered, want)
	}
	if errs := eng.Errors(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
}

// BenchmarkCellScan is what an index node does per query it serves: filter
// one cell's events. The cell is a real one of an actor_wave-sized
// deployment (N=3600, 12 events per node, k=3) — the segment nearest the
// 173 events a cell serve scans there on average — and the queries are
// that workload's exponential-size exact-match ranges, kept when the cell
// is among their relevant cells. The cell is rebuilt by Append in arrival
// order, as a store builds it, so the scan walks its chunks. ns/op and
// allocs/op are the branch-free kernel's, which every store scans with,
// appending into a warm buffer; the Query.AppendMatches it is held to is
// timed right after over the same queries and the same events, materialised
// once outside the timer, and spec/rows reports how many times faster the
// kernel ran. `make micro-bench` gates allocs/op at 0 and the speedup at
// cellScanFloor.
func BenchmarkCellScan(b *testing.B) {
	const n, perNode, target = 3600, 12, 173
	layout, err := field.Generate(field.DefaultSpec(n), rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := node.NewEngine(network.New(layout), gpsr.New(layout), sim.NewScheduler(), 3, rng.New(4), nil)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < n*perNode; i++ {
		if err := eng.Preload(i%n, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	var key pool.Key
	var cell event.Rows
	eng.EachSegment(func(k pool.Key, _ int, events []event.Event) {
		if d := len(events) - target; cell.Len() == 0 || d*d < (cell.Len()-target)*(cell.Len()-target) {
			key = k
			cell = event.Rows{}
			for _, e := range events {
				cell.Append(e)
			}
		}
	})
	qgen := workload.NewQueries(rng.New(7), 3)
	var plan pool.Plan
	var queries []event.Query
	for tries := 0; len(queries) < 256 && tries < 1<<17; tries++ {
		q := qgen.ExactMatch(workload.ExponentialSizes)
		if err := eng.Resolve(q, &plan); err != nil {
			b.Fatal(err)
		}
		for _, f := range plan.Fanouts {
			if f.Pool.Dim == key.Dim && slices.Contains(f.Cells, key.Cell) {
				queries = append(queries, q) // exact-match: its own rewrite
			}
		}
	}
	if len(queries) == 0 {
		b.Fatal("no query reaches the cell")
	}
	events := cell.AppendTo(nil)
	buf := make([]event.Event, 0, cell.Len())
	scan := func(n int, kernel func(dst []event.Event, q event.Query) []event.Event) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			buf = kernel(buf[:0], queries[i%len(queries)])
		}
		return time.Since(start)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := scan(b.N, cell.AppendMatches)
	b.StopTimer()
	spec := scan(b.N, func(dst []event.Event, q event.Query) []event.Event { return q.AppendMatches(dst, events) })
	speedup := float64(spec) / float64(rows)
	b.ReportMetric(speedup, "spec/rows")
	if b.N >= 10000 && speedup < cellScanFloor {
		b.Fatalf("the row kernel is %.2f× the specification, below the %.1f× floor", speedup, cellScanFloor)
	}
}

// cellScanFloor is the least speedup over the specification
// BenchmarkCellScan accepts. Both kernels are timed back to back in one
// run, so a slow host slows both and the ratio holds where ns/op would
// not.
const cellScanFloor = 2.0

// BenchmarkAntiEntropyRoundSteady is the steady state of background
// repair: a replicated Pool at N=900, three events per node, every mirror
// in sync, and one iteration is one reconciliation round over all its
// cell pairs, drained. Each session compares the two copies' memoised set
// summaries, routes its one 40-byte frame and returns, so a round touches
// no event and allocates nothing; `make micro-bench` gates that count
// exactly.
func BenchmarkAntiEntropyRoundSteady(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	net, router, sched := network.New(layout), gpsr.New(layout), sim.NewScheduler()
	sys, err := pool.New(net, router, 3, rng.New(4), pool.WithReplication())
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < 3*900; i++ {
		if err := sys.Insert(i%900, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	rec := antientropy.New(sched, net, router, antientropy.Config{}, sys)
	round := func() {
		if moved := rec.RunRound(); moved != 0 {
			b.Fatalf("a converged store moved %d events", moved)
		}
		sched.Run()
	}
	round() // summaries, pair list and routes are warm from here on
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	pairs := uint64(len(sys.ReplicaPairs()))
	if want := uint64(b.N+1) * pairs; pairs == 0 || rec.Sessions() != want || rec.Symbols() != want {
		b.Fatalf("%d sessions, %d symbols over %d rounds of %d pairs", rec.Sessions(), rec.Symbols(), b.N+1, pairs)
	}
	b.ReportMetric(float64(pairs), "pairs/round")
}

func BenchmarkGPSRRoute(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	router := gpsr.New(layout)
	src := rng.New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := geo.Pt(src.Uniform(0, layout.Side), src.Uniform(0, layout.Side))
		if _, err := router.Route(src.Intn(900), target); err != nil {
			b.Fatal(err)
		}
	}
}

// routePairs pins n (src, dst) pairs over a 900-node deployment. With
// hot > 0 destinations come from that many nodes, as Pool traffic
// converges on index nodes; otherwise they are uniform.
func routePairs(n, hot int) (*field.Layout, [][2]int, error) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(9))
	if err != nil {
		return nil, nil, err
	}
	src := rng.New(10)
	dsts := src.Perm(900)
	if hot > 0 {
		dsts = dsts[:hot]
	}
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(900), dsts[src.Intn(len(dsts))]}
	}
	return layout, pairs, nil
}

// BenchmarkRouteToNodeWarm is steady-state node-addressed routing: one
// long-lived Router, destinations from 64 hot nodes, and one full pass
// over the pairs before the clock starts. The memo does not hold them
// all: 64 destinations × 900 nodes is more keys than its 16 384 slots,
// so every pass after the first hits 70 % of its greedy lookups.
func BenchmarkRouteToNodeWarm(b *testing.B) {
	layout, pairs, err := routePairs(4096, 64)
	if err != nil {
		b.Fatal(err)
	}
	router := gpsr.New(layout)
	buf := make([]int, 0, 64)
	for _, p := range pairs {
		if _, err := router.RouteToNodeBuf(p[0], p[1], buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := router.RouteToNodeBuf(p[0], p[1], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteToNodeCold prices the miss path and the memo's set-up: a
// fresh Router (built off the clock) every 1024 routes, uniform
// destinations, so nearly every hop scans its neighbours and each Router
// builds its table on its first route.
func BenchmarkRouteToNodeCold(b *testing.B) {
	layout, pairs, err := routePairs(1024, 0)
	if err != nil {
		b.Fatal(err)
	}
	var router *gpsr.Router
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(pairs) == 0 {
			b.StopTimer()
			router = gpsr.New(layout)
			b.StartTimer()
		}
		p := pairs[i%len(pairs)]
		if _, err := router.RouteToNodeBuf(p[0], p[1], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitterFor is splitter choice in steady state: every (Pool,
// sink) of a 900-node deployment asked again and again.
func BenchmarkSplitterFor(b *testing.B) {
	env := benchEnv(b, 900)
	pools := env.Pool.Pools()
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += env.Pool.SplitterFor(pools[i%len(pools)], i%900)
	}
	benchSink = sum
}

// BenchmarkSplitterForCold is splitter choice on a cold memo, what every
// fresh deployment pays: each (Pool, sink) of a 900-node deployment asked
// once after a re-election cleared the memo. One op is one such sweep.
func BenchmarkSplitterForCold(b *testing.B) {
	env := benchEnv(b, 900)
	pools := env.Pool.Pools()
	cell := pools[0].Cells()[0]
	holder := env.Pool.IndexNode(cell)
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Pool.Reelect(cell, holder)
		for _, p := range pools {
			for sink := 0; sink < 900; sink++ {
				sum += env.Pool.SplitterFor(p, sink)
			}
		}
	}
	benchSink = sum
}

// benchSink keeps a benchmark's result live.
var benchSink int

// BenchmarkDeploy builds the repository benchmark's sync_ingest
// deployment once per iteration: an N=900 layout with its neighbour
// index, the Gabriel planarization, and a Pool, a DIM and a GHT arm each
// on its own radio. Gated on allocs/op and B/op in `make micro-bench`.
func BenchmarkDeploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := rng.New(43)
		env, err := experiment.Deploy(900, 3, src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.AddPool("Pool", src.Fork("pivots"), nil); err != nil {
			b.Fatal(err)
		}
		if _, err := env.AddDIM("DIM", nil); err != nil {
			b.Fatal(err)
		}
		env.AddGHT("GHT", nil)
	}
}

func BenchmarkGabrielPlanarization(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpsr.New(layout)
	}
}

func BenchmarkPlanarizeChurn(b *testing.B) {
	// Fault-heavy workloads flip a few nodes and immediately route again;
	// each iteration pays one small exclusion change plus the incremental
	// re-planarization it triggers.
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(18))
	if err != nil {
		b.Fatal(err)
	}
	router := gpsr.New(layout)
	src := rng.New(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := src.Intn(900)
		router.Exclude(id)
		router.PlanarNeighbors((id + 1) % 900)
		router.Restore(id)
		router.PlanarNeighbors((id + 1) % 900)
	}
}

func BenchmarkPoolResolve(b *testing.B) {
	p := pool.Pool{Dim: 1, Pivot: pool.CellID{X: 1, Y: 2}, Side: 10}
	qgen := workload.NewQueries(rng.New(12), 3)
	queries := make([]event.Query, 64)
	for i := range queries {
		queries[i] = qgen.ExactMatch(workload.UniformSizes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RelevantCells(queries[i%len(queries)])
	}
}

func BenchmarkDIMRelevantZones(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(13))
	if err != nil {
		b.Fatal(err)
	}
	d, err := dim.New(network.New(layout), gpsr.New(layout), 3)
	if err != nil {
		b.Fatal(err)
	}
	qgen := workload.NewQueries(rng.New(14), 3)
	queries := make([]event.Query, 64)
	for i := range queries {
		queries[i] = qgen.ExactMatch(workload.UniformSizes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RelevantZones(queries[i%len(queries)])
	}
}

func BenchmarkTheorem31InsertCell(b *testing.B) {
	p := pool.Pool{Dim: 1, Pivot: pool.CellID{X: 1, Y: 2}, Side: 10}
	src := rng.New(15)
	vals := make([][2]float64, 256)
	for i := range vals {
		v1 := src.Float64()
		vals[i] = [2]float64{v1, src.Float64() * v1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vals[i%len(vals)]
		p.InsertCell(v[0], v[1])
	}
}

func BenchmarkFieldNearest(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(16))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.Nearest(geo.Pt(src.Uniform(0, layout.Side), src.Uniform(0, layout.Side)))
	}
}

// BenchmarkGPSRHomeNode is GHT's mapping step, the home of a hashed point:
// one index lookup on an intact deployment, the same lookup filtered by
// the source's alive component once nodes are excluded (5% here).
func BenchmarkGPSRHomeNode(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(16))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(17)
	points := make([]geo.Point, 4096)
	for i := range points {
		points[i] = geo.Pt(src.Uniform(0, layout.Side), src.Uniform(0, layout.Side))
	}
	for _, excluded := range []int{0, 45} {
		name := "intact"
		if excluded > 0 {
			name = "excluded"
		}
		b.Run(name, func(b *testing.B) {
			router := gpsr.New(layout)
			// Node 0 is the source; the excluded ones come from the rest.
			for _, id := range rng.New(18).Perm(layout.N() - 1)[:excluded] {
				router.Exclude(id + 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := router.HomeNode(0, points[i%len(points)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPoolNearest(b *testing.B) {
	env := benchEnv(b, 900)
	gen := workload.NewUniformEvents(rng.New(20), 3)
	for i := 0; i < 2700; i++ {
		if err := env.Pool.Insert(i%900, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	src := rng.New(21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		point := []float64{src.Float64(), src.Float64(), src.Float64()}
		if _, err := env.Pool.Nearest(src.Intn(900), point, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tracer overhead ---
//
// The disabled tracer (the default: no WithTracer option, tracer nil)
// must cost no more than a pointer compare on the Transmit hot path.
// Compare TracerDisabled against TracerEnabled to see the full recording
// cost; TracerDisabled against the historical Transmit numbers to confirm
// the hook itself is free.

func benchTransmit(b *testing.B, opts ...network.Option) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	layout, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		b.Fatal(err)
	}
	n := network.New(layout, opts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Transmit(0, 1, network.KindInsert, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransmitTracerDisabled(b *testing.B) {
	benchTransmit(b)
}

func BenchmarkTransmitTracerEnabled(b *testing.B) {
	tr := trace.New(nil)
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	layout, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		b.Fatal(err)
	}
	n := network.New(layout, network.WithTracer(tr))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Transmit(0, 1, network.KindInsert, 32); err != nil {
			b.Fatal(err)
		}
		if tr.Len() >= 1<<16 {
			// Bound the event buffer so the benchmark measures recording,
			// not allocation of an ever-growing slice.
			tr.Reset()
		}
	}
}

func BenchmarkPoolInsertTracerEnabled(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.New(nil)
	net := network.New(layout, network.WithTracer(tr))
	p, err := pool.New(net, gpsr.New(layout), 3, rng.New(1235), pool.WithTracer(tr))
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniformEvents(rng.New(5), 3)
	origin := rng.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Insert(origin.Intn(900), gen.Next()); err != nil {
			b.Fatal(err)
		}
		if tr.Len() >= 1<<16 {
			tr.Reset()
		}
	}
}

// BenchmarkFlightRecorderEmit is the recording cost of the always-on
// flight recorder once its ring is full, which is its steady state: one
// iteration is what a served query leg leaves behind — a hop, a wait, a
// serve stamped at an explicit time and a reply. Every record overwrites
// a slot in place, so the iteration allocates nothing; `make micro-bench`
// gates that.
func BenchmarkFlightRecorderEmit(b *testing.B) {
	tr := trace.NewRing(nil, 1<<12)
	emit := func() {
		tr.Hop(1, 2, "query", 16, 1, false)
		tr.Record(trace.TypeWait, 2, 3, "")
		tr.RecordAt(5*time.Millisecond, trace.TypeServe, 2, 0, "")
		tr.Record(trace.TypeReply, 2, 9, "")
	}
	for tr.Dropped() == 0 {
		emit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit()
	}
}

// ringAttributeSink keeps BenchmarkRingAttribute's results alive.
var ringAttributeSink int

// BenchmarkRingAttribute is the read side of the flight recorder at the
// size churn_repair analyses it: a 1<<18 ring filled (and wrapped) by a
// seeded N=900 replicated actor run with a 2 ms service time, 1 s beacons
// and 10 % churn, then one iteration is Events + Analyze + Attribute +
// RepairWindows over it. The ring is read in place, so what an iteration
// allocates is the analysis itself (spans, per-root index buckets), not a
// copy of the records.
func BenchmarkRingAttribute(b *testing.B) {
	const n = 900
	horizon := 150 * time.Second
	layout, err := field.Generate(field.DefaultSpec(n), rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	net, router := network.New(layout), gpsr.New(layout)
	eng, err := node.NewEngine(net, router, sched, 3, rng.New(4), nil, node.WithReplication())
	if err != nil {
		b.Fatal(err)
	}
	eng.EnableService(2 * time.Millisecond)
	flight := trace.NewRing(sched, 1<<18)
	eng.SetTracer(flight)
	gen := workload.NewUniformEvents(rng.New(5), 3)
	for i := 0; i < 3*n; i++ {
		if err := eng.Preload(i%n, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	disc := discovery.New(net, sched, rng.New(6), discovery.Config{Interval: time.Second})
	faults := chaos.NewEngine(sched, net, router, []chaos.System{eng}, chaos.WithFailureDetection(disc))
	if err := faults.Schedule(chaos.RandomChurn(rng.New(7), n, 0.10, 0.25, horizon)); err != nil {
		b.Fatal(err)
	}
	qgen := workload.NewQueries(rng.New(8), 3)
	sinks := rng.New(9)
	for at := 125 * time.Millisecond; at < horizon; at += 250 * time.Millisecond {
		sink, q := sinks.Intn(n), qgen.ExactMatch(workload.UniformSizes)
		if err := sched.At(at, func() {
			for faults.Down(sink) {
				sink = (sink + 1) % n
			}
			if err := eng.Query(sink, q, func([]event.Event, time.Duration) {}); err != nil {
				b.Error(err)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	disc.Start()
	if err := sched.At(horizon, disc.Stop); err != nil {
		b.Fatal(err)
	}
	sched.Run()
	if flight.Dropped() == 0 {
		b.Fatalf("the run left %d events, not enough to wrap the ring", flight.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := flight.Events()
		a, _ := trace.Analyze(events)
		bds := attrib.Attribute(events, a, attrib.Options{})
		ringAttributeSink += len(bds) + len(attrib.RepairWindows(events, a.Horizon))
	}
	b.StopTimer()
	if ringAttributeSink == 0 {
		b.Fatal("nothing attributed: no query span and no repair window in the ring")
	}
}
