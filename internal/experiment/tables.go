package experiment

import "pooldcs/internal/workload"

// Table is one entry of the registry: a table's command-line name, the ID
// its Result carries (the experiment index of DESIGN.md §5), and its
// runner with the default sweep parameters bound.
type Table struct {
	Name string
	ID   string
	Run  func(Config) (*Result, error)
}

// tables is the registry, in report order. A table's root seed offset,
// fork names and fork order are part of its identity: changing any of
// them changes its rows.
var tables = []Table{
	{"fig6a", "fig6a", func(cfg Config) (*Result, error) { return Fig6(cfg, workload.UniformSizes) }},
	{"fig6b", "fig6b", func(cfg Config) (*Result, error) { return Fig6(cfg, workload.ExponentialSizes) }},
	{"fig7a", "fig7a", Fig7a},
	{"fig7b", "fig7b", Fig7b},
	{"insert", "ablation-insert", InsertCost},
	{"hotspot", "ablation-hotspot", func(cfg Config) (*Result, error) { return Hotspot(cfg, LoadBalanceQuota) }},
	{"poolsize", "ablation-poolsize", func(cfg Config) (*Result, error) { return PoolSize(cfg, []int{5, 10, 15, 20}) }},
	{"pointquery", "ext-pointquery", PointQuery},
	{"aggregate", "ext-aggregate", Aggregates},
	{"energy", "ablation-energy", Energy},
	{"loadbalance", "ablation-loadbalance", LoadBalance},
	{"fragmentation", "ablation-fragmentation", Fragmentation},
	{"dissemination", "ablation-dissemination", Dissemination},
	{"resilience", "ablation-resilience", func(cfg Config) (*Result, error) { return Resilience(cfg, []int{5, 10, 20, 30}) }},
	{"churn", "ablation-churn", func(cfg Config) (*Result, error) { return Churn(cfg, []int{0, 5, 10, 20}) }},
	{"dimsweep", "ablation-dimsweep", func(cfg Config) (*Result, error) { return DimSweep(cfg, []int{2, 3, 4, 5}) }},
	{"variance", "ablation-variance", func(cfg Config) (*Result, error) { return Variance(cfg, 5) }},
	{"placement", "ablation-placement", Placement},
	{"eventload", "ablation-eventload", func(cfg Config) (*Result, error) { return EventLoad(cfg, []int{1, 3, 6, 10}) }},
	{"latency", "ablation-latency", Latency},
	{"asynclatency", "ablation-asynclatency", AsyncLatency},
	{"asyncscale", "ablation-asyncscale", func(cfg Config) (*Result, error) { return AsyncScale(cfg, []int{900, 1800, 3600}) }},
	{"lossy", "ablation-lossy", func(cfg Config) (*Result, error) { return Lossy(cfg, []float64{0, 0.1, 0.2, 0.3}) }},
	{"saturation", "saturation", func(cfg Config) (*Result, error) { return Saturation(cfg, []float64{25, 50, 100, 200, 400}) }},
}

// Tables lists every table in report order.
func Tables() []Table { return tables }

// Lookup finds a table by its command-line name.
func Lookup(name string) (Table, bool) {
	for _, t := range tables {
		if t.Name == name {
			return t, true
		}
	}
	return Table{}, false
}
