package experiment

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/node"
	"pooldcs/internal/rng"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// AsyncLatency measures true end-to-end query response times on the
// event-driven Pool engine (internal/node): packets hop with a 5 ms
// per-hop delay, splitters wait for every cell's acknowledgement, and a
// query completes only when the last pool reply reaches the sink. Unlike
// the analytic critical-path estimate (the latency ablation), these
// numbers come out of an actual discrete-event execution, including the
// ack waits. All of each row's queries run concurrently, as a busy sink
// population would issue them.
func AsyncLatency(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Event-driven Pool query latency, N=%d (ms, %v/hop)", cfg.PartialSize, node.DefaultHopLatency)
	table := texttable.New(title, "Workload", "mean", "p50", "p95", "max")

	src := rng.New(cfg.Seed + 9995)
	env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	if _, err := env.AddActor("node", src.Fork("pivots"), nil); err != nil {
		return nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, err
	}

	qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
	sinkSrc := src.Fork("sinks")
	for _, kind := range queryKinds(qgen) {
		population := make([]event.Query, cfg.Queries)
		for i := range population {
			if population[i], err = kind.gen(); err != nil {
				return nil, err
			}
		}
		costs, err := env.Cost(env.Place(sinkSrc, population))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind.name, err)
		}
		lat := costs[0].LatencyMs
		sum := summary(lat)
		table.AddRow(kind.name,
			texttable.Float(sum.Mean(), 1),
			texttable.Float(stats.Percentile(lat, 50), 0),
			texttable.Float(stats.Percentile(lat, 95), 0),
			texttable.Float(sum.Max(), 0))
	}
	return &Result{ID: "ablation-asynclatency", Title: title, Table: table}, nil
}
