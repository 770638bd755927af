package experiment

import (
	"fmt"

	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Lossy re-runs the exact-match workload over radios that drop each frame
// independently with probability p, with per-hop ARQ retransmission. The
// paper assumes lossless links; real motes don't have them. Expected
// inflation is 1/(1−p) per hop for both systems — the comparison should
// survive, which is what this ablation verifies.
func Lossy(cfg Config, rates []float64) (*Result, error) {
	title := fmt.Sprintf("Lossy links with ARQ, N=%d (exponential range sizes, avg frames/query)", cfg.PartialSize)
	table := texttable.New(title, "LossRate", "DIM", "Pool", "DIM inflation", "Pool inflation")

	// Every rate rebuilds the same deployment from the same seed, so the
	// rows are independent trials; the inflation columns (row value over
	// the first row's value) are computed after collection.
	rows, err := forEach(cfg.parallel(), len(rates), func(i int) ([2]float64, error) {
		p := rates[i]
		src := rng.New(cfg.Seed + 9970) // same deployment for every rate
		env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
		if err != nil {
			return [2]float64{}, err
		}
		// A zero rate is a lossless radio; both loss sources are forked at
		// every rate, so the later forks see the same stream and the rows
		// stay comparable.
		poolNet := []network.Option{network.WithLossRate(p, src.Fork("loss-pool"))}
		dimNet := []network.Option{network.WithLossRate(p, src.Fork("loss-dim"))}
		if _, err := env.AddPool("Pool", src.Fork("pivots"), poolNet); err != nil {
			return [2]float64{}, err
		}
		if _, err := env.AddDIM("DIM", dimNet); err != nil {
			return [2]float64{}, err
		}
		if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
			return [2]float64{}, err
		}
		population := exactMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		costs, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population))
		if err != nil {
			return [2]float64{}, fmt.Errorf("p=%v: %w", p, err)
		}
		return [2]float64{costs[0].PerQuery(), costs[1].PerQuery()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range rates {
		poolAvg, dimAvg := rows[i][0], rows[i][1]
		poolBase, dimBase := rows[0][0], rows[0][1]
		table.AddRow(
			texttable.Float(p, 2),
			texttable.Float(dimAvg, 1), texttable.Float(poolAvg, 1),
			texttable.Float(dimAvg/dimBase, 2), texttable.Float(poolAvg/poolBase, 2))
	}
	return &Result{ID: "ablation-lossy", Title: title, Table: table}, nil
}
