package experiment

import (
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// DimSweep varies the event dimensionality k. Pool's core idea is the
// "higher dimension to two-dimensional mapping" (§1): no matter k, an
// event is located by just its two greatest values, and a query visits k
// Pools of l² cells. DIM, by contrast, interleaves all k attributes into
// one k-d tree whose pruning weakens as k grows. The sweep quantifies
// both effects on exact-match queries.
func DimSweep(cfg Config, dims []int) (*Result, error) {
	title := fmt.Sprintf("Dimensionality sweep, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "k",
		"DIM exact", "Pool exact", "DIM 1-partial", "Pool 1-partial")

	return sweep(cfg, "ablation-dimsweep", table, len(dims), func(ki int) ([]string, error) {
		k := dims[ki]
		src := rng.New(cfg.Seed + 9900 + int64(k))
		env, _, _, err := NewEnv(cfg.PartialSize, k, src)
		if err != nil {
			return nil, err
		}
		if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), k)); err != nil {
			return nil, err
		}

		// The exact and the 1-partial population are drawn alternately
		// from one generator and issued from the same sinks.
		qgen := workload.NewQueries(src.Fork("queries"), k)
		exact := make([]event.Query, cfg.Queries)
		partial := make([]event.Query, cfg.Queries)
		for i := range exact {
			exact[i] = qgen.ExactMatch(workload.ExponentialSizes)
			if partial[i], err = qgen.MPartial(1); err != nil {
				return nil, err
			}
		}
		placed := env.Place(src.Fork("sinks"), exact)
		exactCost, err := env.cost(cfg.parallel(), placed)
		if err != nil {
			return nil, fmt.Errorf("k=%d exact: %w", k, err)
		}
		partialCost, err := env.cost(cfg.parallel(), requery(placed, func(i int, _ event.Query) event.Query { return partial[i] }))
		if err != nil {
			return nil, fmt.Errorf("k=%d partial: %w", k, err)
		}
		return []string{texttable.Int(k),
			texttable.Float(exactCost[1].PerQuery(), 1), texttable.Float(exactCost[0].PerQuery(), 1),
			texttable.Float(partialCost[1].PerQuery(), 1), texttable.Float(partialCost[0].PerQuery(), 1)}, nil
	})
}
