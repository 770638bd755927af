package experiment

import (
	"fmt"

	"pooldcs/internal/dim"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Dissemination compares the two DIM query-forwarding models (zone-order
// chain vs recursive splitting) on the Figure 7(b) workload, against Pool.
// The paper does not specify DIM's forwarding at message level; this
// ablation shows the headline conclusions do not depend on that modelling
// choice.
func Dissemination(cfg Config) (*Result, error) {
	title := fmt.Sprintf("DIM dissemination model ablation, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "Query", "DIM(chain)", "DIM(split)", "Pool")

	src := rng.New(cfg.Seed + 9700)
	env, _, _, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	if _, err := env.AddDIM("DIM(split)", nil, dim.WithDissemination(dim.SplitDissemination)); err != nil {
		return nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, err
	}

	bases, err := partialMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, 0)
	if err != nil {
		return nil, err
	}
	placed := env.Place(src.Fork("sinks"), bases)

	for n := 1; n <= cfg.Dims; n++ {
		costs, err := env.cost(cfg.parallel(), oneAtN(placed, n))
		if err != nil {
			return nil, fmt.Errorf("1@%d: %w", n, err)
		}
		table.AddRow(fmt.Sprintf("1@%d-Partial", n),
			texttable.Float(costs[1].PerQuery(), 1),
			texttable.Float(costs[2].PerQuery(), 1),
			texttable.Float(costs[0].PerQuery(), 1))
	}
	return &Result{ID: "ablation-dissemination", Title: title, Table: table}, nil
}
