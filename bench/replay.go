package main

import (
	"errors"
	"strconv"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/chaos"
	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/ght"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// Isolated replays: after a pinned batch of the traced pass, a lower
// layer is driven directly, through its public functions, with inputs
// the workload induced. That gives the layer's unit cost; unit cost x
// count / enclosing span is its estimated share of the calling layer's
// time, and the remainder is the caller's self time.

// replaySample bounds the operations a replay covers.
const replaySample = 512

// leg is one routed unicast a storage scheme performs for an operation.
type leg struct{ from, to int }

// stride returns up to replaySample indices spread evenly over n.
func stride(n int) []int {
	step := max(n/replaySample, 1)
	var out []int
	for i := 0; i < n && len(out) < replaySample; i += step {
		out = append(out, i)
	}
	return out
}

// poolQueryLegs lists the unicasts of one Pool query: sink to each
// relevant Pool's splitter, splitter to each relevant cell's index
// node, and the replies back.
func poolQueryLegs(legs []leg, sys *pool.System, sink int, rq event.Query, cells []pool.CellID) ([]leg, []pool.CellID, int) {
	ncells := 0
	for _, p := range sys.Pools() {
		cells = p.AppendRelevantCells(cells[:0], rq)
		if len(cells) == 0 {
			continue
		}
		ncells += len(cells)
		sp := sys.SplitterFor(p, sink)
		legs = append(legs, leg{sink, sp}, leg{sp, sink})
		for _, c := range cells {
			if idx := sys.IndexNode(c); idx != sp {
				legs = append(legs, leg{sp, idx}, leg{idx, sp})
			}
		}
	}
	return legs, cells, ncells
}

// dimQueryLegs lists the unicasts of one DIM query: the query walks
// the relevant zones' owners in order and each owner replies to the
// sink.
func dimQueryLegs(legs []leg, zones []dim.Zone, sink int) []leg {
	at := sink
	replied := map[int]bool{}
	for _, z := range zones {
		if z.Owner != at {
			legs = append(legs, leg{at, z.Owner})
			at = z.Owner
		}
		if !replied[z.Owner] && z.Owner != sink {
			replied[z.Owner] = true
			legs = append(legs, leg{z.Owner, sink})
		}
	}
	return legs
}

// replayRoutes drives the router and then a scratch network directly
// over the legs, and records the unit costs.
func replayRoutes(r *run, layout *field.Layout, router *gpsr.Router, legs []leg) {
	if len(legs) == 0 {
		return
	}
	paths := make([][]int, 0, len(legs))
	var buf []int
	hops, perimeter, unreachable := 0, 0, 0
	id := r.sp.begin(r.sp.kind("gpsr", "replay.route"), r.b)
	start := time.Now()
	for _, l := range legs {
		res, err := router.RouteToNodeBuf(l.from, l.to, buf)
		buf = res.Path
		if err != nil {
			if errors.Is(err, gpsr.ErrUnreachable) {
				unreachable++
			}
			continue
		}
		hops += res.Hops()
		perimeter += res.PerimeterHops
		paths = append(paths, append([]int(nil), res.Path...))
	}
	routeNs := float64(time.Since(start))
	r.sp.end(id)
	// Copying the paths out is the replay's own work, not the router's.
	start = time.Now()
	for _, p := range paths {
		buf = append(buf[:0], p...)
	}
	routeNs -= float64(time.Since(start))
	if hops == 0 {
		return
	}
	r.sample("gpsr.route_ns_per_hop", routeNs/float64(hops))
	r.count("gpsr.hops", float64(hops))
	r.count("gpsr.routes", float64(len(paths)))
	r.count("gpsr.perimeter_hops", float64(perimeter))
	r.count("gpsr.unreachable", float64(unreachable))

	scratch := network.New(layout)
	payload := dcs.QueryBytes(dims)
	id = r.sp.begin(r.sp.kind("network", "replay.transmit"), r.b)
	start = time.Now()
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			must(scratch.Transmit(p[i-1], p[i], network.KindQuery, payload))
		}
	}
	r.sample("network.transmit_ns", float64(time.Since(start))/float64(hops))
	r.sp.end(id)
}

// replayNearest times Layout.Nearest on the centres of the Pool cells.
func replayNearest(r *run, layout *field.Layout, sys *pool.System) {
	var centres []geo.Point
	for _, p := range sys.Pools() {
		for _, c := range p.Cells() {
			centres = append(centres, sys.Grid().Center(c))
		}
	}
	start := time.Now()
	for _, c := range centres {
		layout.Nearest(c)
	}
	r.sample("field.nearest_ns", float64(time.Since(start))/float64(len(centres)))
}

// replayRange is sync_range's replay: the routes and transmissions of
// a sample of the batch's queries on both schemes, and each scheme's
// resolution step alone.
func replayRange(r *run, env *rangeEnv, queries []placedQuery) {
	sample := stride(len(queries))
	rqs := make([]event.Query, len(sample))
	for i, qi := range sample {
		rqs[i] = queries[qi].q.Rewrite()
	}

	var cells []pool.CellID
	start := time.Now()
	for _, rq := range rqs {
		for _, p := range env.pool.Pools() {
			cells = p.AppendRelevantCells(cells[:0], rq)
		}
	}
	r.sample("pool.resolve_ns", float64(time.Since(start))/float64(len(rqs)))

	zones := make([][]dim.Zone, len(rqs))
	start = time.Now()
	for i, rq := range rqs {
		zones[i] = env.dim.RelevantZones(rq)
	}
	r.sample("dim.resolve_ns", float64(time.Since(start))/float64(len(rqs)))

	var legs []leg
	for i, qi := range sample {
		var n int
		legs, cells, n = poolQueryLegs(legs, env.pool, queries[qi].sink, rqs[i], cells)
		r.count("pool.cells", float64(n))
		legs = dimQueryLegs(legs, zones[i], queries[qi].sink)
		r.count("dim.zones", float64(len(zones[i])))
	}
	r.count("replay.queries", float64(len(sample)))
	replayRoutes(r, env.layout, env.router, legs)
	replayNearest(r, env.layout, env.pool)
}

// replayIngest is sync_ingest's replay: the insert and point-query
// routes of a sample of the batch on the three schemes, and each
// scheme's placement step alone.
func replayIngest(r *run, p *pool.System, d *dim.System, g *ght.System, layout *field.Layout, router *gpsr.Router, inserts []placedEvent, queries []placedQuery) {
	sample := stride(len(inserts))

	cellsOf := make([]pool.CellID, len(sample))
	start := time.Now()
	for i, ii := range sample {
		ev := inserts[ii].ev
		d1 := event.GreatestDims(ev)[0]
		cellsOf[i] = p.Pools()[d1-1].InsertCell(ev.Values[d1-1], event.SecondGreatest(ev, d1))
	}
	r.sample("pool.insert_cell_ns", float64(time.Since(start))/float64(len(sample)))

	points := make([]geo.Point, len(sample))
	start = time.Now()
	for i, ii := range sample {
		points[i] = g.HashPoint(inserts[ii].ev.Values)
	}
	r.sample("ght.hash_ns", float64(time.Since(start))/float64(len(sample)))

	var legs []leg
	for i, ii := range sample {
		pe := inserts[ii]
		legs = append(legs,
			leg{pe.origin, p.IndexNode(cellsOf[i])},
			leg{pe.origin, d.ZoneOf(pe.ev.Values).Owner},
			leg{pe.origin, layout.Nearest(points[i])})
	}
	var cells []pool.CellID
	for _, qi := range stride(len(queries)) {
		pq := queries[qi]
		rq := pq.q.Rewrite()
		var n int
		legs, cells, n = poolQueryLegs(legs, p, pq.sink, rq, cells)
		r.count("pool.cells", float64(n))
		zones := d.RelevantZones(rq)
		legs = dimQueryLegs(legs, zones, pq.sink)
		r.count("dim.zones", float64(len(zones)))
		home := layout.Nearest(g.HashPoint([]float64{rq.Ranges[0].L, rq.Ranges[1].L, rq.Ranges[2].L}))
		legs = append(legs, leg{pq.sink, home}, leg{home, pq.sink})
		r.count("replay.queries", 1)
	}
	replayRoutes(r, layout, router, legs)
	replayNearest(r, layout, p)
}

// replayActor is the replay of the actor-engine workloads: the routes
// from a sample of the sinks to the splitters that served them and
// back, the only legs of the hop-by-hop protocol visible from outside.
func replayActor(r *run, env *actorEnv, n int, query func(i int) (sink int, q event.Query)) {
	var legs []leg
	for _, i := range stride(n) {
		sink, q := query(i)
		for _, sp := range env.eng.SplittersFor(sink, q) {
			if sp != sink {
				legs = append(legs, leg{sink, sp}, leg{sp, sink})
			}
		}
	}
	replayRoutes(r, env.layout, env.router, legs)
}

// noopHandler is the kernel replay's event consumer: it keeps the
// pending set at its depth by scheduling one event per event fired.
type noopHandler struct {
	sched *sim.Scheduler
	id    sim.HandlerID
	src   *rng.Source
	left  uint64
}

func (h *noopHandler) HandleEvent(op uint8, a, b uint64) {
	if h.left > 0 {
		h.left--
		h.sched.AfterEvent(time.Duration(h.src.Intn(int(100*time.Millisecond))), h.id, op, a, b)
	}
}

// replayKernel fires the workload's event count through a fresh
// scheduler and a no-op typed handler at the sampled pending depth.
func replayKernel(r *run, events uint64, depth int) {
	if events == 0 {
		return
	}
	depth = max(depth, 1)
	sched := sim.NewScheduler()
	h := &noopHandler{sched: sched, src: rng.New(1), left: events}
	h.id = sched.Register(h)
	for i := 0; i < depth; i++ {
		h.HandleEvent(0, uint64(i), 0)
	}
	id := r.sp.begin(r.sp.kind("sim", "replay.kernel"), r.b)
	start := time.Now()
	sched.Run()
	r.sample("sim.kernel_ns_per_event", float64(time.Since(start))/float64(sched.Executed()))
	r.sp.end(id)
}

// replayChurn is churn_repair's replay: re-planarisation around each
// fault of the plan, beacon broadcasts, a converged anti-entropy
// round, and the rateless codec at three difference sizes.
func replayChurn(r *run, env *churnEnv, plan chaos.Plan) {
	router := gpsr.New(env.layout)
	router.PlanarNeighbors(0)
	src := rng.New(int64(r.b) + 1)
	n := env.layout.N()
	faults, unreachable := 0, 0
	var buf []int
	start := time.Now()
	for _, f := range plan.Faults {
		switch f.Kind {
		case chaos.Crash:
			router.Exclude(f.Node)
		case chaos.Recover:
			router.Restore(f.Node)
		default:
			continue
		}
		faults++
		from, to := src.Intn(n), src.Intn(n)
		if router.Excluded(from) || router.Excluded(to) {
			router.PlanarNeighbors(0)
			continue
		}
		res, err := router.RouteToNodeBuf(from, to, buf)
		buf = res.Path
		if errors.Is(err, gpsr.ErrUnreachable) {
			unreachable++
		}
	}
	if faults > 0 {
		r.sample("gpsr.replanarize_us_per_fault", float64(time.Since(start))/1e3/float64(faults))
	}
	r.count("gpsr.unreachable", float64(unreachable))

	scratch := network.New(env.layout)
	const rounds = 8
	start = time.Now()
	for k := 0; k < rounds; k++ {
		for id := 0; id < n; id++ {
			scratch.Broadcast(id, network.KindControl, 16)
		}
	}
	r.sample("network.broadcast_ns", float64(time.Since(start))/float64(rounds*n))

	// The run has converged, so these rounds are the steady-state cost:
	// every pair confirms it is in sync.
	for k := 0; k < 3; k++ {
		id := r.sp.begin(r.sp.kind("antientropy", "replay.round"), r.b)
		start = time.Now()
		env.ae.RunRound()
		env.sched.Run()
		r.sample("antientropy.round_wall_us", float64(time.Since(start))/1e3)
		r.sp.end(id)
	}

	var legs []leg
	var cells []pool.CellID
	qsrc := rng.New(int64(r.b) + 7)
	for i := 0; i < 512; i++ {
		lo := qsrc.Float64() * 0.5
		rq := event.NewQuery(event.Span(lo, lo+0.5), event.Span(lo, lo+0.5), event.Span(lo, lo+0.5))
		legs, cells, _ = poolQueryLegs(legs, env.pool, qsrc.Intn(n), rq, cells)
	}
	replayRoutes(r, env.layout, env.repl.router, legs)
	replayCodec(r)
}

// replayCodec times the rateless codec alone: encoding, and decoding a
// difference of 1, 32 and 1024 keys between two 4096-key sets.
func replayCodec(r *run) {
	const setSize = 4096
	src := rng.New(99)
	keys := make([]uint64, setSize+1024)
	for i := range keys {
		keys[i] = uint64(src.Int63())
	}
	enc := antientropy.NewEncoder(keys[:setSize])
	const symbols = 2048
	start := time.Now()
	for i := 0; i < symbols; i++ {
		enc.Next()
	}
	r.sample("antientropy.encode_ns_per_symbol", float64(time.Since(start))/symbols)

	for _, delta := range []int{1, 32, 1024} {
		// The peer holds delta keys the local side lacks.
		peer := antientropy.NewEncoder(keys[:setSize+delta])
		start := time.Now()
		dec := antientropy.NewDecoder(keys[:setSize])
		decoded := false
		// Symbols arrive in doubling batches capped at 16, as in a session.
		for sent, batch := 0, 1; sent < 64*delta+64 && !decoded; batch = min(2*batch, 16) {
			for i := 0; i < batch; i++ {
				dec.Add(peer.Next())
			}
			sent += batch
			if diff, ok := dec.Decode(); ok {
				decoded = diff.Size() == delta
			}
		}
		if !decoded {
			r.fail("codec replay: difference of %d keys did not decode", delta)
		}
		r.sample("antientropy.decode_us_d"+strconv.Itoa(delta), float64(time.Since(start))/1e3)
	}
}
