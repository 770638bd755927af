package experiment

import (
	"fmt"

	"pooldcs/internal/dim"
	"pooldcs/internal/event"
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
	env, err := Deploy(o.Nodes, o.Dims, src)
	if err != nil {
		return nil, err
	}
	// The scheduler is the trace clock; synchronous replays never run it,
	// so span order and hop counts carry the causality instead, while the
	// node mode advances it for real and stamps durations.
	env.Sched = sim.NewScheduler()
	tr := trace.New(env.Sched)
	net := []network.Option{network.WithTracer(tr)}
	var poolSys *pool.System
	switch o.System {
	case "pool":
		poolSys, err = env.AddPool("pool", src.Fork("pivots"), net, pool.WithTracer(tr))
	case "dim":
		_, err = env.AddDIM("dim", net, dim.WithTracer(tr))
	case "node":
		// Message-driven repair plus the churn table's service model, so
		// the trace carries real durations — transmit, ARQ stalls,
		// queueing, retry detours, repair interference — which is what
		// the autopsy subcommand decomposes.
		var eng *node.Engine
		if eng, err = env.AddActor("node", src.Fork("pivots"), net, node.WithReplication(), node.WithTracer(tr)); err == nil {
			eng.EnableService(churnServiceTime)
		}
	}
	if err != nil {
		return nil, err
	}

	gen := workload.NewUniformEvents(src.Fork("events"), o.Dims)
	if _, err := env.Populate(o.EventsPerNode, gen); err != nil {
		return nil, fmt.Errorf("experiment: trace %w", err)
	}

	res := &TraceResult{}
	if o.Subscriptions > 0 {
		subGen := workload.NewQueries(src.Fork("subs"), o.Dims)
		subSinks := src.Fork("subsinks")
		for i := 0; i < o.Subscriptions; i++ {
			q := subGen.ExactMatch(workload.UniformSizes)
			if _, err := poolSys.Subscribe(subSinks.Intn(o.Nodes), q); err != nil {
				return nil, fmt.Errorf("experiment: trace subscribe: %w", err)
			}
		}
		extra := src.Fork("extra")
		for i := 0; i < 5*o.Subscriptions; i++ {
			if err := poolSys.Insert(extra.Intn(o.Nodes), gen.Next()); err != nil {
				return nil, fmt.Errorf("experiment: trace extra insert: %w", err)
			}
		}
		res.Notifications = len(poolSys.Notifications())
	}

	if o.Failures > 0 {
		if _, err := env.failRandom(o.Failures, src.Fork("failures")); err != nil {
			return nil, fmt.Errorf("experiment: trace failure: %w", err)
		}
	}

	// Exact-match and 1-partial queries alternate. The synchronous
	// replays answer them one by one; the node mode launches them
	// concurrently, so they contend with the repair traffic on the
	// virtual clock.
	qgen := workload.NewQueries(src.Fork("queries"), o.Dims)
	population := make([]event.Query, o.Queries)
	for i := range population {
		population[i] = qgen.ExactMatch(workload.ExponentialSizes)
		if i%2 == 1 && o.Dims >= 2 {
			if pq, err := qgen.MPartial(1); err == nil {
				population[i] = pq
			}
		}
	}
	costs, err := env.Cost(env.Place(src.Fork("sinks"), population))
	if err != nil {
		return nil, fmt.Errorf("experiment: trace %w", err)
	}

	res.Matches = costs[0].Matches
	res.Events = tr.Events().Slice()
	res.Counters = env.Arms[0].Net.Snapshot()
	return res, nil
}
