package experiment

// env.go is the experimental design every table instantiates: one
// deployment, N arms, and the three steps populate → place → cost. A
// table states what differs between its arms and which columns it reads;
// how events are drawn and stored, how sinks meet queries, how traffic is
// charged and how answers are cross-checked is stated here, once.

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/ght"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// Env is one deployment — layout, router, optional virtual clock — and
// the systems under comparison on it.
type Env struct {
	Layout *field.Layout
	// Router is planarised at construction and read-only afterwards
	// (unless a table excludes nodes from it), so the arms may route on
	// it from concurrent goroutines.
	Router *gpsr.Router
	// Dims is the event dimensionality every arm is built for.
	Dims int
	// Sched is the virtual clock of the deployment's actor arms. AddActor
	// creates it on first use; a table that needs the clock before its
	// arms exist (a tracer, a beacon protocol) sets it up front.
	Sched *sim.Scheduler
	// Arms lists the systems under comparison in the order they were
	// added, which is the order Cost reports them in.
	Arms []*Arm
	// ownRouters gives every arm added afterwards a router of its own
	// instead of the deployment's: under churn each arm detects and
	// routes around its crashes on its own schedule.
	ownRouters bool
	// metered gives every arm added afterwards a metrics registry of its
	// own (Arm.Reg) on its radio and its system, for the tables that read
	// per-node vectors back through the monitoring surface.
	metered bool
}

// Arm is one system under comparison. Only its own traffic moves its
// network's counters, which is what makes per-arm cost a counter delta.
type Arm struct {
	Name string
	// Net is the arm's own traffic-counting radio, carrying whatever sets
	// the arm apart at that layer: loss rate, MTU, registry or tracer.
	Net    *network.Network
	Router *gpsr.Router
	// Reg is nil unless the deployment is metered.
	Reg *metrics.Registry
	// Sys is the blocking surface Populate stores into and Cost queries.
	Sys dcs.System
	// Engine is set on an actor arm; Sys is then its node.Sync adapter,
	// whose inserts preload at no radio or virtual-time cost.
	Engine *node.Engine
}

// Deploy generates a connected deployment of n nodes with no arms yet.
func Deploy(n, dims int, src *rng.Source) (*Env, error) {
	layout, err := field.Generate(field.DefaultSpec(n), src.Fork("layout"))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return deployOn(layout, dims), nil
}

// deployOn wraps an already generated layout.
func deployOn(layout *field.Layout, dims int) *Env {
	return &Env{Layout: layout, Router: gpsr.New(layout), Dims: dims}
}

// NewEnv builds the paper's comparison: a deployment of n nodes with a
// Pool arm and a DIM arm, in that order, returned typed for the tables
// that read more than traffic off them.
func NewEnv(n, dims int, src *rng.Source, poolOpts ...pool.Option) (*Env, *pool.System, *dim.System, error) {
	e, err := Deploy(n, dims, src)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := e.AddPool("Pool", src.Fork("pivots"), nil, poolOpts...)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := e.AddDIM("DIM", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return e, p, d, nil
}

// arm opens the next arm on a fresh network built with the given options.
func (e *Env) arm(name string, net []network.Option) *Arm {
	a := &Arm{Name: name, Router: e.Router}
	if e.metered {
		a.Reg = metrics.New()
	}
	// A nil registry attaches nothing, here and in the schemes' options.
	a.Net = network.New(e.Layout, append([]network.Option{network.WithMetrics(a.Reg)}, net...)...)
	if e.ownRouters {
		a.Router = gpsr.New(e.Layout)
	}
	e.Arms = append(e.Arms, a)
	return a
}

// AddPool adds a Pool arm whose pivots are drawn from pivots.
func (e *Env) AddPool(name string, pivots *rng.Source, net []network.Option, opts ...pool.Option) (*pool.System, error) {
	a := e.arm(name, net)
	p, err := pool.New(a.Net, a.Router, e.Dims, pivots, append([]pool.Option{pool.WithMetrics(a.Reg)}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", name, err)
	}
	a.Sys = p
	return p, nil
}

// AddDIM adds a DIM arm.
func (e *Env) AddDIM(name string, net []network.Option, opts ...dim.Option) (*dim.System, error) {
	a := e.arm(name, net)
	d, err := dim.New(a.Net, a.Router, e.Dims, append([]dim.Option{dim.WithMetrics(a.Reg)}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", name, err)
	}
	a.Sys = d
	return d, nil
}

// AddGHT adds a GHT arm.
func (e *Env) AddGHT(name string, net []network.Option, opts ...ght.Option) *ght.System {
	a := e.arm(name, net)
	g := ght.New(a.Net, a.Router, append([]ght.Option{ght.WithMetrics(a.Reg)}, opts...)...)
	a.Sys = g
	return g
}

// AddActor adds an arm running the event-driven Pool engine on the
// deployment's virtual clock.
func (e *Env) AddActor(name string, pivots *rng.Source, net []network.Option, opts ...node.Option) (*node.Engine, error) {
	if e.Sched == nil {
		e.Sched = sim.NewScheduler()
	}
	a := e.arm(name, net)
	eng, err := node.NewEngine(a.Net, a.Router, e.Sched, e.Dims, pivots, nil, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", name, err)
	}
	if a.Reg != nil {
		eng.EnableMetrics(a.Reg)
	}
	a.Engine, a.Sys = eng, node.NewSync(name, eng, e.Sched)
	return eng, nil
}

// PlacedEvent is an event with its detecting sensor.
type PlacedEvent struct {
	Origin int
	Event  event.Event
}

// GenerateEvents draws perNode events per sensor from gen, each detected
// at its own sensor (§5.1: every sensor generates three events).
func GenerateEvents(layout *field.Layout, perNode int, gen *workload.Events) []PlacedEvent {
	out := make([]PlacedEvent, 0, layout.N()*perNode)
	for node := 0; node < layout.N(); node++ {
		for i := 0; i < perNode; i++ {
			out = append(out, PlacedEvent{Origin: node, Event: gen.Next()})
		}
	}
	return out
}

// Populate draws the event population once and stores it in every arm.
func (e *Env) Populate(perNode int, gen *workload.Events) ([]PlacedEvent, error) {
	events := GenerateEvents(e.Layout, perNode, gen)
	for _, a := range e.Arms {
		for _, pe := range events {
			if err := a.Sys.Insert(pe.Origin, pe.Event); err != nil {
				return nil, fmt.Errorf("%s insert: %w", a.Name, err)
			}
		}
	}
	return events, nil
}

// InsertCost is the arm's insertion traffic per stored event.
func (a *Arm) InsertCost(events []PlacedEvent) float64 {
	return float64(a.Net.Messages(network.KindInsert)) / float64(len(events))
}

// PlacedQuery is a query with the sink issuing it.
type PlacedQuery struct {
	Sink  int
	Query event.Query
}

// Place attaches a sink drawn from sinks to every query of a population.
func (e *Env) Place(sinks *rng.Source, population []event.Query) []PlacedQuery {
	out := make([]PlacedQuery, len(population))
	for i, q := range population {
		out[i] = PlacedQuery{Sink: sinks.Intn(e.Layout.N()), Query: q}
	}
	return out
}

// requery keeps the sinks of placed and swaps in the query f derives for
// each position: the rows of a paired design differ only in the query.
func requery(placed []PlacedQuery, f func(i int, q event.Query) event.Query) []PlacedQuery {
	out := make([]PlacedQuery, len(placed))
	for i, pq := range placed {
		out[i] = PlacedQuery{Sink: pq.Sink, Query: f(i, pq.Query)}
	}
	return out
}

// exactMatches draws n exact-match range queries.
func exactMatches(qgen *workload.Queries, n int, dist workload.RangeSizeDist) []event.Query {
	out := make([]event.Query, n)
	for i := range out {
		out[i] = qgen.ExactMatch(dist)
	}
	return out
}

// partialMatches draws n queries with m unspecified dimensions.
func partialMatches(qgen *workload.Queries, n, m int) ([]event.Query, error) {
	out := make([]event.Query, n)
	for i := range out {
		q, err := qgen.MPartial(m)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// fullSpan is the query matching every stored event.
func fullSpan(dims int) event.Query {
	ranges := make([]event.Range, dims)
	for i := range ranges {
		ranges[i] = event.Span(0, 1)
	}
	return event.NewQuery(ranges...)
}

// Traffic is what answering one batch of placed queries cost one arm.
type Traffic struct {
	// Forward and Reply count the query-forwarding and reply
	// transmissions (one per hop) the batch moved on the arm's network.
	Forward, Reply uint64
	// Queries is the batch size, Matches the events returned across it.
	Queries, Matches int
	// LatencyMs holds an actor arm's response times in completion order.
	LatencyMs []float64
}

// PerQuery is the paper's metric: query forwarding plus reply messages,
// averaged per query.
func (t Traffic) PerQuery() float64 {
	return float64(t.Forward+t.Reply) / float64(t.Queries)
}

// queryTraffic reads the arm's running query-processing counters.
func (a *Arm) queryTraffic() (forward, reply uint64) {
	return a.Net.Messages(network.KindQuery), a.Net.Messages(network.KindReply)
}

// queryFrames is queryTraffic summed.
func (a *Arm) queryFrames() uint64 {
	forward, reply := a.queryTraffic()
	return forward + reply
}

// measure runs op and returns the query-processing frames and the reply
// payload bytes it moved on the arm's network.
func (a *Arm) measure(op func() error) (frames, replyBytes uint64, err error) {
	frames0, bytes0 := a.queryFrames(), a.Net.PayloadBytes(network.KindReply)
	if err := op(); err != nil {
		return 0, 0, err
	}
	return a.queryFrames() - frames0, a.Net.PayloadBytes(network.KindReply) - bytes0, nil
}

// answer sends every query through the arm and stores each result set
// into res. A synchronous arm answers them one by one; an actor arm has
// them all in flight at once, the way a busy sink population would issue
// them, and is done when its scheduler has drained.
func (a *Arm) answer(sched *sim.Scheduler, queries []PlacedQuery, res [][]event.Event) (latencyMs []float64, err error) {
	if a.Engine == nil {
		for qi, pq := range queries {
			if res[qi], err = a.Sys.Query(pq.Sink, pq.Query); err != nil {
				return nil, fmt.Errorf("%s query %d: %w", a.Name, qi, err)
			}
		}
		return nil, nil
	}
	for qi, pq := range queries {
		// A crashed actor node cannot issue anything: a real user would
		// query from a live gateway.
		sink := pq.Sink
		for a.Engine.Failed(sink) {
			sink = (sink + 1) % a.Net.Layout().N()
		}
		if err := a.Engine.Query(sink, pq.Query, func(results []event.Event, elapsed time.Duration) {
			res[qi] = results
			latencyMs = append(latencyMs, float64(elapsed.Milliseconds()))
		}); err != nil {
			return nil, fmt.Errorf("%s query %d: %w", a.Name, qi, err)
		}
	}
	sched.Run()
	if errs := a.Engine.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("%s queries: %w", a.Name, errs[0])
	}
	if len(latencyMs) != len(queries) {
		return nil, fmt.Errorf("%s: %d of %d queries completed", a.Name, len(latencyMs), len(queries))
	}
	return latencyMs, nil
}

// Cost runs the same placed queries through every arm, one arm after
// another, and returns each arm's query-processing traffic in arm
// order. All arms answer the same population, so they must return
// identical result sets; a mismatch is reported as an error since it
// indicates a correctness bug.
func (e *Env) Cost(queries []PlacedQuery) ([]Traffic, error) {
	return e.cost(nil, queries)
}

// cost is Cost with the arms fanned out on the pool w (nil: one after
// another). Each pass touches only its own system, network and result
// slice, and the shared router is read-only, so the totals are the same
// at any pool size (actor arms share the deployment's clock and cannot
// be fanned out; no table costs two).
func (e *Env) cost(w *workers, queries []PlacedQuery) ([]Traffic, error) {
	res := make([][][]event.Event, len(e.Arms))
	out, err := forEach(w, len(e.Arms), func(ai int) (Traffic, error) {
		a := e.Arms[ai]
		res[ai] = make([][]event.Event, len(queries))
		f0, r0 := a.queryTraffic()
		lat, err := a.answer(e.Sched, queries, res[ai])
		if err != nil {
			return Traffic{}, err
		}
		f1, r1 := a.queryTraffic()
		t := Traffic{Forward: f1 - f0, Reply: r1 - r0, Queries: len(queries), LatencyMs: lat}
		for _, r := range res[ai] {
			t.Matches += len(r)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[uint64]int)
	for ai := 1; ai < len(e.Arms); ai++ {
		for qi := range queries {
			if !sameEvents(seen, res[0][qi], res[ai][qi]) {
				return nil, fmt.Errorf("query %d (%v): %s returned %d events, %s %d — result sets differ",
					qi, queries[qi].Query, e.Arms[0].Name, len(res[0][qi]), e.Arms[ai].Name, len(res[ai][qi]))
			}
		}
	}
	return out, nil
}

// sameEvents compares result sets by sequence number, using a
// caller-owned scratch map (cleared on entry) so per-query comparisons
// allocate nothing.
func sameEvents(seen map[uint64]int, a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	clear(seen)
	for _, e := range a {
		seen[e.Seq]++
	}
	for _, e := range b {
		seen[e.Seq]--
		if seen[e.Seq] < 0 {
			return false
		}
	}
	return true
}

// failRandom crashes k distinct nodes drawn from src, the same ones in
// every arm, and returns the dead set. The synchronous Pool repairs with
// global knowledge and keeps routing as before; an actor arm is torn
// down at every layer — routing, radio, storage — and repairs over the
// messages that follow.
func (e *Env) failRandom(k int, src *rng.Source) (map[int]bool, error) {
	dead := make(map[int]bool, k)
	for len(dead) < k {
		v := src.Intn(e.Layout.N())
		if dead[v] {
			continue
		}
		dead[v] = true
		for _, a := range e.Arms {
			if a.Engine != nil {
				a.Router.Exclude(v)
				a.Net.FailNode(v)
			}
			if err := a.Sys.FailNode(v); err != nil {
				return nil, fmt.Errorf("%s: failing node %d: %w", a.Name, v, err)
			}
		}
	}
	return dead, nil
}

// liveSink returns the first node at or after sink that is not dead.
func liveSink(dead map[int]bool, sink, n int) int {
	for dead[sink] {
		sink = (sink + 1) % n
	}
	return sink
}
