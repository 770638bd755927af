package experiment

import (
	"fmt"

	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Energy reports the radio-energy footprint of a full insert+query
// workload on Pool and DIM: total energy, the hottest node's share, and
// the Gini coefficient of the per-node energy distribution. Energy
// hotspots are what ultimately kill a sensor network (§1's fourth design
// issue), so this quantifies the claim behind the workload-sharing
// machinery. The per-node vectors are read back through each arm's
// metrics registry — the same net_node_energy_joules family poolmon
// exports — rather than from the network directly.
func Energy(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Radio energy footprint, N=%d (insert + %d queries)", cfg.PartialSize, cfg.Queries)
	table := texttable.New(title, "System", "TotalJ", "MaxNode mJ", "Gini")

	src := rng.New(cfg.Seed + 9500)
	env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	env.metered = true
	if _, err := env.AddPool("Pool", src.Fork("pivots"), nil); err != nil {
		return nil, err
	}
	if _, err := env.AddDIM("DIM", nil); err != nil {
		return nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, err
	}
	population := exactMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
	if _, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population)); err != nil {
		return nil, err
	}

	for _, a := range []*Arm{env.Arms[1], env.Arms[0]} { // DIM, Pool
		b := metrics.Analyze(a.Reg.NodeValues("net_node_energy_joules"))
		table.AddRow(a.Name,
			texttable.Float(a.Reg.Value("net_energy_joules"), 3),
			texttable.Float(b.Max*1e3, 2),
			texttable.Float(b.Gini, 3))
	}
	return &Result{ID: "ablation-energy", Title: title, Table: table}, nil
}

// Fragmentation re-runs the §3.2.3 aggregation comparison on a radio with
// a realistic 64-byte MTU, where large replies fragment into many frames:
// aggregation then saves messages, not just bytes.
func Fragmentation(cfg Config) (*Result, error) {
	const mtu = 64
	title := fmt.Sprintf("Aggregation under a %d-byte radio MTU, N=%d", mtu, cfg.PartialSize)
	table := texttable.New(title, "Operation", "Frames", "ReplyBytes")

	src := rng.New(cfg.Seed + 9600)
	// The layout is drawn from a fork of its own, which is part of this
	// table's identity: the deployment must not move.
	env, p, err := poolOnly(cfg, src, src.Fork("layout"), network.WithMTU(mtu))
	if err != nil {
		return nil, err
	}
	q := fullSpan(cfg.Dims)
	sink := src.Fork("sinks").Intn(cfg.PartialSize)

	ops := []struct {
		name string
		run  func() error
	}{
		{"SELECT *", func() error { _, err := p.Query(sink, q); return err }},
		{"COUNT", func() error { _, err := p.Aggregate(sink, q, pool.AggCount, 0); return err }},
	}
	for _, op := range ops {
		frames, replyBytes, err := env.Arms[0].measure(op.run)
		if err != nil {
			return nil, err
		}
		table.AddRow(op.name, texttable.Int(int(frames)), texttable.Int(int(replyBytes)))
	}
	return &Result{ID: "ablation-fragmentation", Title: title, Table: table}, nil
}
