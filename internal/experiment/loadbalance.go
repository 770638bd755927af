package experiment

import (
	"fmt"

	"pooldcs/internal/metrics"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// LoadBalanceQuota is the workload-sharing quota the load-balance
// comparison uses for its third row, matching the hotspot ablation.
const LoadBalanceQuota = 20

// LoadBalance reproduces the paper's load-balance comparison (§1's
// fourth design issue, §4.2, §5) through the live metrics subsystem:
// every per-node vector in the table is read back from a metrics
// registry attached to the system under test — the same vectors poolmon
// exports — so the experiment table and the monitoring surface cannot
// drift apart.
//
// Under a skewed event distribution DIM concentrates both storage and
// radio traffic on the few nodes owning the hot value region, while
// Pool's workload sharing redistributes overflow across pool members.
// The table reports the imbalance statistics (Gini coefficient,
// coefficient of variation, heaviest node's share) of the stored-event
// and tx-frame distributions for DIM, plain Pool, and Pool with the
// §4.2 workload-sharing mechanism.
func LoadBalance(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Load balance under skewed events, N=%d (per-node storage and radio distributions)", cfg.PartialSize)
	table := texttable.New(title, "System",
		"Store Gini", "Store CoV", "Store top%",
		"Tx Gini", "Tx CoV", "Tx max")

	src := rng.New(cfg.Seed + 9700)
	env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}

	// One arm per system, each with a registry on its radio and its
	// system so the per-node vectors stay separable; stores names the
	// family holding each arm's per-node stored events.
	env.metered = true
	stores := []string{"dim_stored_events", "pool_stored_events", "pool_stored_events"}
	if _, err := env.AddDIM("DIM", nil); err != nil {
		return nil, err
	}
	if _, err := env.AddPool("Pool", src.Fork("pivots-plain"), nil); err != nil {
		return nil, err
	}
	if _, err := env.AddPool(fmt.Sprintf("Pool+sharing(q=%d)", LoadBalanceQuota), src.Fork("pivots-shared"), nil,
		pool.WithWorkloadSharing(LoadBalanceQuota)); err != nil {
		return nil, err
	}

	// The skewed workload of the hotspot ablation: events cluster around
	// one value region, queries follow the paper's exponential range-size
	// distribution.
	gen := workload.NewHotspotEvents(src.Fork("events"), hotspotCenter(cfg.Dims), 0.02)
	if _, err := env.Populate(cfg.EventsPerNode, gen); err != nil {
		return nil, fmt.Errorf("loadbalance: %w", err)
	}
	population := exactMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
	if _, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population)); err != nil {
		return nil, fmt.Errorf("loadbalance: %w", err)
	}

	for i, a := range env.Arms {
		store := metrics.Analyze(a.Reg.NodeValues(stores[i]))
		tx := metrics.Analyze(a.Reg.NodeValues("net_tx_frames_total"))
		table.AddRow(a.Name,
			texttable.Float(store.Gini, 3),
			texttable.Float(store.CoV, 2),
			texttable.Float(store.TopShare*100, 1),
			texttable.Float(tx.Gini, 3),
			texttable.Float(tx.CoV, 2),
			texttable.Int(int(tx.Max)))
	}
	return &Result{ID: "ablation-loadbalance", Title: title, Table: table}, nil
}
