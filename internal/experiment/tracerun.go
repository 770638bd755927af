package experiment

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

// TraceOptions configures one traced workload replay — the opt-in
// per-run tracing entry point. A TraceRun builds a fresh deployment with
// a tracer attached to both the radio layer and the chosen DCS system,
// replays a seeded insert+query workload, and hands back the recorded
// events alongside the network counters so trace-derived totals can be
// checked against the accounting layer.
type TraceOptions struct {
	// System selects the traced scheme: "pool" or "dim" (synchronous
	// replays, clock pinned at zero) or "node" (the actor engine on real
	// virtual time, the mode whose traces carry durations the autopsy
	// can decompose).
	System string
	// Seed drives every random choice; identical options reproduce
	// identical traces.
	Seed int64
	// Nodes is the deployment size.
	Nodes int
	// Dims is the event dimensionality.
	Dims int
	// EventsPerNode is the bulk storage load.
	EventsPerNode int
	// Queries alternates exact-match and 1-partial range queries.
	Queries int
	// Subscriptions registers standing queries after the bulk load; five
	// follow-up inserts per subscription then exercise the push path
	// (Pool only).
	Subscriptions int
	// Failures kills that many random nodes before the queries run
	// (Pool only).
	Failures int
}

// DefaultTraceOptions returns the §5.1-flavoured defaults used by the
// pooltrace CLI.
func DefaultTraceOptions() TraceOptions {
	return TraceOptions{
		System:        "pool",
		Seed:          42,
		Nodes:         300,
		Dims:          3,
		EventsPerNode: workload.DefaultEventsPerNode,
		Queries:       40,
	}
}

// TraceResult is one traced replay.
type TraceResult struct {
	// Events is the recorded trace, copied out of the tracer.
	Events []trace.Event
	// Counters is the radio layer's final accounting, for consistency
	// checks against the trace.
	Counters network.Counters
	// Matches is the total number of events returned across all queries.
	Matches int
	// Notifications is the number of continuous-query pushes delivered.
	Notifications int
}

// TraceRun replays a seeded workload with tracing enabled.
func TraceRun(o TraceOptions) (*TraceResult, error) {
	if o.System != "pool" && o.System != "dim" && o.System != "node" {
		return nil, fmt.Errorf("experiment: unknown trace system %q (want pool, dim, or node)", o.System)
	}
	if o.System == "dim" && (o.Subscriptions > 0 || o.Failures > 0) {
		return nil, fmt.Errorf("experiment: subscriptions and failures are Pool-only")
	}
	if o.System == "node" && o.Subscriptions > 0 {
		return nil, fmt.Errorf("experiment: subscriptions are Pool-only")
	}
	src := rng.New(o.Seed)
	layout, err := field.Generate(field.DefaultSpec(o.Nodes), src.Fork("layout"))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	router := gpsr.New(layout)
	// The scheduler is the trace clock; synchronous replays never run it,
	// so span order and hop counts carry the causality instead, while the
	// node mode advances it for real and stamps durations.
	sched := sim.NewScheduler()
	tr := trace.New(sched)
	net := network.New(layout, network.WithTracer(tr))
	if o.System == "node" {
		return traceNodeRun(o, src, layout, router, tr, net, sched)
	}

	var sys dcs.System
	var poolSys *pool.System
	switch o.System {
	case "pool":
		poolSys, err = pool.New(net, router, o.Dims, src.Fork("pivots"), pool.WithTracer(tr))
		sys = poolSys
	case "dim":
		sys, err = dim.New(net, router, o.Dims, dim.WithTracer(tr))
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	gen := workload.NewUniformEvents(src.Fork("events"), o.Dims)
	for n := 0; n < layout.N(); n++ {
		for i := 0; i < o.EventsPerNode; i++ {
			if err := sys.Insert(n, gen.Next()); err != nil {
				return nil, fmt.Errorf("experiment: trace insert: %w", err)
			}
		}
	}

	res := &TraceResult{}
	if o.Subscriptions > 0 {
		subGen := workload.NewQueries(src.Fork("subs"), o.Dims)
		subSinks := src.Fork("subsinks")
		for i := 0; i < o.Subscriptions; i++ {
			q := subGen.ExactMatch(workload.UniformSizes)
			if _, err := poolSys.Subscribe(subSinks.Intn(layout.N()), q); err != nil {
				return nil, fmt.Errorf("experiment: trace subscribe: %w", err)
			}
		}
		extra := src.Fork("extra")
		for i := 0; i < 5*o.Subscriptions; i++ {
			if err := poolSys.Insert(extra.Intn(layout.N()), gen.Next()); err != nil {
				return nil, fmt.Errorf("experiment: trace extra insert: %w", err)
			}
		}
		res.Notifications = len(poolSys.Notifications())
	}

	if o.Failures > 0 {
		failSrc := src.Fork("failures")
		for killed := 0; killed < o.Failures; {
			id := failSrc.Intn(layout.N())
			if poolSys.Failed(id) {
				continue
			}
			if err := poolSys.FailNode(id); err != nil {
				return nil, fmt.Errorf("experiment: trace failure: %w", err)
			}
			killed++
		}
	}

	qgen := workload.NewQueries(src.Fork("queries"), o.Dims)
	sinks := src.Fork("sinks")
	for i := 0; i < o.Queries; i++ {
		q := qgen.ExactMatch(workload.ExponentialSizes)
		if i%2 == 1 && o.Dims >= 2 {
			if pq, err := qgen.MPartial(1); err == nil {
				q = pq
			}
		}
		matches, err := sys.Query(sinks.Intn(layout.N()), q)
		if err != nil {
			return nil, fmt.Errorf("experiment: trace query %d: %w", i, err)
		}
		res.Matches += len(matches)
	}

	res.Events = tr.Events().Slice()
	res.Counters = net.Snapshot()
	return res, nil
}

// traceNodeRun replays the workload on the message-driven actor engine:
// the bulk load is preloaded synchronously, failures (if any) crash
// nodes the way the chaos engine does, and the queries then launch
// concurrently so they contend with the repair traffic on the virtual
// clock. The resulting trace carries real durations — transmit, ARQ
// stalls, queueing, retry detours, repair interference — which is what
// the autopsy subcommand decomposes.
func traceNodeRun(o TraceOptions, src *rng.Source, layout *field.Layout, router *gpsr.Router,
	tr *trace.Tracer, net *network.Network, sched *sim.Scheduler) (*TraceResult, error) {
	eng, err := node.NewEngine(net, router, sched, o.Dims, src.Fork("pivots"), nil,
		node.WithReplication(), node.WithTracer(tr))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	eng.EnableService(churnServiceTime)

	gen := workload.NewUniformEvents(src.Fork("events"), o.Dims)
	for n := 0; n < layout.N(); n++ {
		for i := 0; i < o.EventsPerNode; i++ {
			if err := eng.Preload(n, gen.Next()); err != nil {
				return nil, fmt.Errorf("experiment: trace preload: %w", err)
			}
		}
	}

	res := &TraceResult{}
	dead := make(map[int]bool)
	if o.Failures > 0 {
		failSrc := src.Fork("failures")
		for killed := 0; killed < o.Failures; {
			id := failSrc.Intn(layout.N())
			if dead[id] {
				continue
			}
			dead[id] = true
			router.Exclude(id)
			net.FailNode(id)
			if err := eng.FailNode(id); err != nil {
				return nil, fmt.Errorf("experiment: trace failure: %w", err)
			}
			killed++
		}
	}

	qgen := workload.NewQueries(src.Fork("queries"), o.Dims)
	sinks := src.Fork("sinks")
	for i := 0; i < o.Queries; i++ {
		q := qgen.ExactMatch(workload.ExponentialSizes)
		if i%2 == 1 && o.Dims >= 2 {
			if pq, err := qgen.MPartial(1); err == nil {
				q = pq
			}
		}
		sink := sinks.Intn(layout.N())
		for dead[sink] {
			sink = (sink + 1) % layout.N()
		}
		if err := eng.Query(sink, q, func(results []event.Event, _ time.Duration) {
			res.Matches += len(results)
		}); err != nil {
			return nil, fmt.Errorf("experiment: trace query %d: %w", i, err)
		}
	}
	sched.Run()
	for _, err := range eng.Errors() {
		return nil, fmt.Errorf("experiment: trace node engine: %w", err)
	}

	res.Events = tr.Events().Slice()
	res.Counters = net.Snapshot()
	return res, nil
}
