package experiment

import (
	"fmt"

	"pooldcs/internal/rng"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Variance re-runs the Figure 6(b) series over several independent
// deployments per network size and reports the mean cost with a ~95%
// confidence half-width, quantifying how much the single-deployment
// figures move with the random placement and pivot draws.
func Variance(cfg Config, trials int) (*Result, error) {
	if trials < 2 {
		return nil, fmt.Errorf("experiment: variance needs ≥ 2 trials, got %d", trials)
	}
	title := fmt.Sprintf("Figure 6(b) across %d deployments (avg messages/query, mean ± 95%% CI)", trials)
	table := texttable.New(title, "NetworkSize", "DIM", "DIM ±", "Pool", "Pool ±")

	// One query population shared across every size and trial.
	population := exactMatches(workload.NewQueries(rng.New(cfg.Seed+556), cfg.Dims), cfg.Queries, workload.ExponentialSizes)

	// Every (size, trial) pair is an independent deployment, so the whole
	// grid fans out flat; the per-trial averages come back in grid order
	// and are folded into each row's Summary sequentially, keeping the
	// float accumulation — and therefore the rendered table — identical
	// to a sequential run.
	sizes := cfg.NetworkSizes
	grid, err := forEach(cfg.parallel(), len(sizes)*trials, func(i int) ([2]float64, error) {
		n, trial := sizes[i/trials], i%trials
		poolAvg, dimAvg, err := pairCost(cfg, n, rng.New(cfg.Seed+int64(n)*100+int64(trial)), population)
		if err != nil {
			return [2]float64{}, fmt.Errorf("n=%d trial %d: %w", n, trial, err)
		}
		return [2]float64{poolAvg, dimAvg}, nil
	})
	if err != nil {
		return nil, err
	}
	for si, n := range sizes {
		var dimSum, poolSum stats.Summary
		for trial := 0; trial < trials; trial++ {
			res := grid[si*trials+trial]
			poolSum.Add(res[0])
			dimSum.Add(res[1])
		}
		table.AddRow(texttable.Int(n),
			texttable.Float(dimSum.Mean(), 1), texttable.Float(dimSum.CI95(), 1),
			texttable.Float(poolSum.Mean(), 1), texttable.Float(poolSum.CI95(), 1))
	}
	return &Result{ID: "ablation-variance", Title: title, Table: table}, nil
}
