package experiment

import (
	"fmt"

	"pooldcs/internal/node"
	"pooldcs/internal/rng"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// AsyncScale sweeps the event-driven Pool engine across universe sizes —
// up to 4× the fixed N=900 deployment the other actor-engine tables use —
// and reports what the discrete-event kernel absorbed to get there: total
// scheduler events fired, the virtual time the concurrent insert wave
// takes to drain, end-to-end query latency percentiles, and the
// per-query message cost. Each row's whole insert population is in
// flight at once (one hop-by-hop exchange per stored event), then the
// row's whole query population runs concurrently, the way a busy sink
// population would issue it. The largest points are practical only on
// the ladder-queue kernel — tens of thousands of simultaneously pending
// per-hop deliveries are exactly its steady-state workload.
func AsyncScale(cfg Config, sizes []int) (*Result, error) {
	title := fmt.Sprintf("Actor-engine scale sweep (%v/hop, %d queries/point)", node.DefaultHopLatency, cfg.Queries)
	table := texttable.New(title, "N", "events", "drain-ms", "p50-ms", "p95-ms", "msgs/query")

	return sweep(cfg, "ablation-asyncscale", table, len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		src := rng.New(cfg.Seed + 9996 + int64(n))
		env, err := Deploy(n, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		eng, err := env.AddActor("node", src.Fork("pivots"), nil)
		if err != nil {
			return nil, err
		}

		// The insert wave is part of what the row measures, so it goes
		// over the radio instead of through Populate's preload.
		events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		for _, pe := range events {
			if err := eng.Insert(pe.Origin, pe.Event, nil); err != nil {
				return nil, err
			}
		}
		env.Sched.Run()
		if errs := eng.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("n=%d inserts: %v", n, errs[0])
		}
		drainMs := float64(env.Sched.Now().Milliseconds())

		population := exactMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		costs, err := env.Cost(env.Place(src.Fork("sinks"), population))
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		lat := costs[0].LatencyMs
		return []string{texttable.Int(n),
			texttable.Int(int(env.Sched.Executed())),
			texttable.Float(drainMs, 0),
			texttable.Float(stats.Percentile(lat, 50), 0),
			texttable.Float(stats.Percentile(lat, 95), 0),
			texttable.Float(costs[0].PerQuery(), 1)}, nil
	})
}
