// Package experiment contains one runner per figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out, listed in report
// order by Tables. Every runner is the paper's one experimental design:
// build a deployment (Env), store the same events in every system under
// comparison (its arms, each over its own traffic-counting network), send
// every arm the same queries from the same sinks, and report the paper's
// metric: the average number of messages exchanged per query.
package experiment

import (
	"time"

	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Config holds the shared experiment parameters (§5.1 defaults).
type Config struct {
	// Seed drives every random choice; identical configs reproduce
	// identical tables.
	Seed int64
	// Dims is the event dimensionality (paper: 3).
	Dims int
	// EventsPerNode is the stored-event load (paper: 3).
	EventsPerNode int
	// Queries is the number of queries averaged per data point.
	Queries int
	// NetworkSizes are the deployment sizes swept by Figure 6.
	NetworkSizes []int
	// PartialSize is the fixed deployment size of Figure 7 (paper: 900).
	PartialSize int
	// Parallel bounds the number of goroutines that compute at once,
	// across every table of a RunTables run and every trial fanned out
	// inside them: 1 forces a sequential run, 0 (the default) uses
	// GOMAXPROCS. Every trial seeds its own random source, so the
	// tables are byte-identical at any setting.
	Parallel int
	// RepairPeriod is the background anti-entropy round interval of the
	// churn experiment's replicated universes (0 selects the
	// antientropy default of 5s).
	RepairPeriod time.Duration
	// Backend selects the storage implementation for the experiments
	// that support both: "" or "pool" runs the synchronous specification
	// (global-knowledge repair), "node" runs the event-driven actor
	// engine, whose fault repair plays out as real multi-hop exchanges.
	Backend string
	// Repair enables mirror replication — and, on the node backend,
	// message-driven mirror restoration — for the backend-aware
	// experiments.
	Repair bool
	// TraceRing is the capacity of the flight-recorder event ring the
	// attribution-instrumented experiments (churn, saturation) attach to
	// their actor universe. Zero selects DefaultTraceRing. The ring
	// bounds trace memory; eviction degrades the attribution columns
	// gracefully rather than growing the heap with the horizon.
	TraceRing int

	// workers is the pool RunTables shares across its run (runner.go);
	// nil outside one.
	workers *workers
}

// DefaultTraceRing bounds the per-universe flight recorder: large
// enough to hold a full churn horizon's probe spans at the default
// deployment sizes, small enough to stay a fixed cost.
const DefaultTraceRing = 1 << 18

// traceRing resolves the flight-recorder capacity.
func (c Config) traceRing() int {
	if c.TraceRing > 0 {
		return c.TraceRing
	}
	return DefaultTraceRing
}

// Default returns the paper's §5.1 parameters.
func Default() Config {
	return Config{
		Seed:          42,
		Dims:          3,
		EventsPerNode: workload.DefaultEventsPerNode,
		Queries:       100,
		NetworkSizes:  []int{300, 600, 900, 1200},
		PartialSize:   900,
	}
}

// Quick returns a configuration with fewer queries per point for tests
// and smoke runs. Network sizes stay at the paper's values: the claims
// about DIM's sensitivity to network size only hold at realistic scales.
func Quick() Config {
	cfg := Default()
	cfg.Queries = 30
	cfg.NetworkSizes = []int{300, 600, 900}
	return cfg
}

// Result is one regenerated figure or table.
type Result struct {
	// ID matches the experiment index in DESIGN.md (e.g. "fig6a").
	ID string
	// Title describes the experiment.
	Title string
	// Table holds the series data.
	Table *texttable.Table
}

// String renders the result for the CLI.
func (r *Result) String() string {
	return r.Table.String()
}
