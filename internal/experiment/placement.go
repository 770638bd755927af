package experiment

import (
	"fmt"

	"pooldcs/internal/field"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Placement compares uniform against clustered deployments. The paper
// assumes sensors dense enough that every cell holds a node (§2);
// clustered placement breaks that locally — Pool cells in coverage gaps
// get index nodes far from their centres, while DIM's zones adapt their
// size to where nodes actually are. The ablation quantifies how much each
// design pays.
func Placement(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Placement sensitivity, N=%d (exponential range sizes)", cfg.PartialSize)
	table := texttable.New(title, "Placement", "DIM msgs/query", "Pool msgs/query", "DIM ins/evt", "Pool ins/evt")

	type variant struct {
		name string
		gen  func(src *rng.Source) (*field.Layout, error)
	}
	variants := []variant{
		{"uniform", func(src *rng.Source) (*field.Layout, error) {
			return field.Generate(field.DefaultSpec(cfg.PartialSize), src)
		}},
		{"clustered", func(src *rng.Source) (*field.Layout, error) {
			return field.GenerateClustered(field.DefaultSpec(cfg.PartialSize), 5, 0.12, src)
		}},
	}

	return sweep(cfg, "ablation-placement", table, len(variants), func(vi int) ([]string, error) {
		v := variants[vi]
		src := rng.New(cfg.Seed + 9950)
		layout, err := v.gen(src.Fork("layout"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		env := deployOn(layout, cfg.Dims)
		if _, err := env.AddPool("Pool", src.Fork("pivots"), nil); err != nil {
			return nil, err
		}
		if _, err := env.AddDIM("DIM", nil); err != nil {
			return nil, err
		}
		events, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		population := exactMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		costs, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		poolArm, dimArm := env.Arms[0], env.Arms[1]
		return []string{v.name,
			texttable.Float(costs[1].PerQuery(), 1), texttable.Float(costs[0].PerQuery(), 1),
			texttable.Float(dimArm.InsertCost(events), 1), texttable.Float(poolArm.InsertCost(events), 1)}, nil
	})
}
