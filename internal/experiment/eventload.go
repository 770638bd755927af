package experiment

import (
	"fmt"

	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// EventLoad varies the stored-event population (events per node) at a
// fixed network size and splits each system's query cost into
// dissemination and reply traffic. It isolates why Figure 6(a)'s DIM
// slope amplifies in this reproduction: with uniform range sizes, reply
// traffic grows with the stored population while dissemination stays
// constant — and DIM's replies travel zone-to-sink individually while
// Pool's converge through splitters.
func EventLoad(cfg Config, perNode []int) (*Result, error) {
	title := fmt.Sprintf("Stored-event load sweep, N=%d (uniform range sizes, avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "Events/node",
		"DIM query", "DIM reply", "Pool query", "Pool reply")

	return sweep(cfg, "ablation-eventload", table, len(perNode), func(pi int) ([]string, error) {
		per := perNode[pi]
		src := rng.New(cfg.Seed + 9960 + int64(per))
		env, _, _, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		if _, err := env.Populate(per, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
			return nil, err
		}

		// Fixed query population across rows (same generator seed).
		population := exactMatches(workload.NewQueries(rng.New(cfg.Seed+557), cfg.Dims), cfg.Queries, workload.UniformSizes)
		costs, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population))
		if err != nil {
			return nil, fmt.Errorf("per=%d: %w", per, err)
		}
		row := []string{texttable.Int(per)}
		for _, c := range []Traffic{costs[1], costs[0]} { // DIM, Pool
			row = append(row,
				texttable.Float(float64(c.Forward)/float64(c.Queries), 1),
				texttable.Float(float64(c.Reply)/float64(c.Queries), 1))
		}
		return row, nil
	})
}
