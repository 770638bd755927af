package experiment

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// pairCost populates the paper's Pool+DIM comparison with uniform events,
// places the population at sinks drawn from src's "sinks" fork and returns
// the per-query cost of both arms: the body Figure 6 and its variance
// re-run share.
func pairCost(cfg Config, n int, src *rng.Source, population []event.Query) (poolAvg, dimAvg float64, err error) {
	env, _, _, err := NewEnv(n, cfg.Dims, src)
	if err != nil {
		return 0, 0, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return 0, 0, err
	}
	costs, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population))
	if err != nil {
		return 0, 0, err
	}
	return costs[0].PerQuery(), costs[1].PerQuery(), nil
}

// Fig6 regenerates Figure 6: the cost of exact-match range queries as the
// network grows, under the given range-size distribution. Figure 6(a) uses
// workload.UniformSizes, Figure 6(b) workload.ExponentialSizes.
func Fig6(cfg Config, dist workload.RangeSizeDist) (*Result, error) {
	id := "fig6a"
	if dist == workload.ExponentialSizes {
		id = "fig6b"
	}
	title := fmt.Sprintf("Figure 6 — exact match query cost, %s range sizes (avg messages/query)", dist)
	table := texttable.New(title, "NetworkSize", "DIM", "Pool")

	// One query population shared by every network size (common random
	// numbers), so the series reflects scaling rather than draw noise.
	population := exactMatches(workload.NewQueries(rng.New(cfg.Seed+555), cfg.Dims), cfg.Queries, dist)

	// Each network size is an independent trial with its own seed, so the
	// sizes fan out across workers and the rows land in sweep order.
	return sweep(cfg, id, table, len(cfg.NetworkSizes), func(i int) ([]string, error) {
		n := cfg.NetworkSizes[i]
		poolAvg, dimAvg, err := pairCost(cfg, n, rng.New(cfg.Seed+int64(n)), population)
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		return []string{texttable.Int(n), texttable.Float(dimAvg, 1), texttable.Float(poolAvg, 1)}, nil
	})
}

// Fig7a regenerates Figure 7(a): partial-match query cost by the number of
// unspecified dimensions, at the fixed §5.1 network size.
func Fig7a(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Figure 7(a) — partial match query cost by unspecified dimensions, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "Query", "DIM", "Pool")

	src := rng.New(cfg.Seed + 7001)
	env, _, _, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, err
	}

	// Paired design: every m-partial row blanks out attributes of the same
	// fully specified base queries, so rows differ only in m.
	qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
	wildSrc := src.Fork("wild")
	bases, err := partialMatches(qgen, cfg.Queries, 0)
	if err != nil {
		return nil, err
	}
	placed := env.Place(src.Fork("sinks"), bases)
	wildOrder := make([][]int, cfg.Queries)
	for i := range wildOrder {
		wildOrder[i] = wildSrc.Perm(cfg.Dims)
	}

	for m := 1; m < cfg.Dims; m++ {
		costs, err := env.cost(cfg.parallel(), requery(placed, func(i int, q event.Query) event.Query {
			return blankOut(q, wildOrder[i][:m])
		}))
		if err != nil {
			return nil, fmt.Errorf("m=%d: %w", m, err)
		}
		table.AddRow(fmt.Sprintf("%d-Partial", m), texttable.Float(costs[1].PerQuery(), 1), texttable.Float(costs[0].PerQuery(), 1))
	}
	return &Result{ID: "fig7a", Title: title, Table: table}, nil
}

// blankOut returns the query with the given 0-based attributes made
// unspecified.
func blankOut(q event.Query, dims []int) event.Query {
	ranges := append([]event.Range(nil), q.Ranges...)
	for _, d := range dims {
		ranges[d] = event.Unspecified()
	}
	return event.NewQuery(ranges...)
}

// oneAtN returns the placed base queries with attribute n (1-based) made
// unspecified: the 1@n-partial rows of Figure 7(b) and of the
// dissemination ablation.
func oneAtN(placed []PlacedQuery, n int) []PlacedQuery {
	return requery(placed, func(_ int, q event.Query) event.Query { return blankOut(q, []int{n - 1}) })
}

// Fig7b regenerates Figure 7(b): 1@n-partial match query cost by which
// dimension carries the unspecified range.
func Fig7b(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Figure 7(b) — 1@n-partial match query cost by unspecified dimension, N=%d (avg messages/query)", cfg.PartialSize)
	// DIMZones and PoolCells expose the pruning mechanism behind the
	// costs: the zones/cells each system must visit per query.
	table := texttable.New(title, "Query", "DIM", "Pool", "DIMZones", "PoolCells")

	src := rng.New(cfg.Seed + 7002)
	env, p, d, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, err
	}

	// Paired design: the three 1@n rows share the same base queries and
	// sinks, differing only in which attribute is blanked out.
	bases, err := partialMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, 0)
	if err != nil {
		return nil, err
	}
	placed := env.Place(src.Fork("sinks"), bases)

	for n := 1; n <= cfg.Dims; n++ {
		queries := oneAtN(placed, n)
		var zoneCount, cellCount int
		for _, pq := range queries {
			zoneCount += len(d.RelevantZones(pq.Query))
			for _, cells := range p.RelevantCells(pq.Query) {
				cellCount += len(cells)
			}
		}
		costs, err := env.cost(cfg.parallel(), queries)
		if err != nil {
			return nil, fmt.Errorf("1@%d: %w", n, err)
		}
		nq := float64(cfg.Queries)
		table.AddRow(fmt.Sprintf("1@%d-Partial", n),
			texttable.Float(costs[1].PerQuery(), 1), texttable.Float(costs[0].PerQuery(), 1),
			texttable.Float(float64(zoneCount)/nq, 1), texttable.Float(float64(cellCount)/nq, 1))
	}
	return &Result{ID: "fig7b", Title: title, Table: table}, nil
}
