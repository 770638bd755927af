// Command poolsim regenerates the paper's evaluation figures and this
// repository's ablations from the command line.
//
// Usage:
//
//	poolsim [flags] <experiment>...
//
// Experiments: fig6a, fig6b, fig7a, fig7b, insert, hotspot, poolsize,
// pointquery, aggregate, energy, loadbalance, fragmentation,
// dissemination, resilience, churn, dimsweep, variance, placement,
// eventload, latency, asynclatency, asyncscale, lossy, saturation, all.
//
// Flags:
//
//	-seed N      random seed (default 42)
//	-queries N   queries per data point (default 100)
//	-sizes LIST  comma-separated network sizes for the fig6 sweeps
//	-quick       fewer queries, smaller sweep (smoke run)
//	-parallel N  worker goroutines per experiment (0 = GOMAXPROCS, 1 = sequential)
//	-repair-period D  anti-entropy round interval for the churn experiment (default 5s)
//	-backend B   storage backend for the resilience sweep: pool (synchronous
//	             spec, default) or node (event-driven actor engine)
//	-repair      with -backend=node: mirror every cell and restore crashed
//	             state through message-driven repair exchanges
//	-trace-ring N  flight-recorder capacity in events (64 bytes each) for the
//	             churn and saturation attribution columns (0 = default
//	             262144, 16 MB per recorder)
//	-format F    text | csv | markdown (default text)
//	-debug-addr A  serve net/http/pprof and Prometheus /metrics on A while running
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pooldcs/internal/experiment"
	"pooldcs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "poolsim:", err)
		os.Exit(1)
	}
}

// runner executes one named experiment under a config.
type runner func(cfg experiment.Config) (*experiment.Result, error)

var experiments = map[string]runner{
	"fig6a": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Fig6(cfg, workload.UniformSizes)
	},
	"fig6b": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Fig6(cfg, workload.ExponentialSizes)
	},
	"fig7a":  experiment.Fig7a,
	"fig7b":  experiment.Fig7b,
	"insert": experiment.InsertCost,
	"hotspot": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Hotspot(cfg, 20)
	},
	"poolsize": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.PoolSize(cfg, []int{5, 10, 15, 20})
	},
	"pointquery":    experiment.PointQuery,
	"aggregate":     experiment.Aggregates,
	"energy":        experiment.Energy,
	"loadbalance":   experiment.LoadBalance,
	"dissemination": experiment.Dissemination,
	"dimsweep": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.DimSweep(cfg, []int{2, 3, 4, 5})
	},
	"variance": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Variance(cfg, 5)
	},
	"placement": experiment.Placement,
	"eventload": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.EventLoad(cfg, []int{1, 3, 6, 10})
	},
	"latency":      experiment.Latency,
	"asynclatency": experiment.AsyncLatency,
	"asyncscale": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.AsyncScale(cfg, []int{900, 1800, 3600})
	},
	"lossy": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Lossy(cfg, []float64{0, 0.1, 0.2, 0.3})
	},
	"resilience": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Resilience(cfg, []int{5, 10, 20, 30})
	},
	"churn": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Churn(cfg, []int{0, 5, 10, 20})
	},
	"fragmentation": experiment.Fragmentation,
	"saturation": func(cfg experiment.Config) (*experiment.Result, error) {
		return experiment.Saturation(cfg, []float64{25, 50, 100, 200, 400})
	},
}

// order lists the experiments in report order for "all".
var order = []string{
	"fig6a", "fig6b", "fig7a", "fig7b",
	"insert", "hotspot", "poolsize", "pointquery", "aggregate",
	"energy", "loadbalance", "fragmentation", "dissemination", "resilience", "churn", "dimsweep", "variance", "placement", "eventload", "latency", "asynclatency", "asyncscale", "lossy", "saturation",
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("poolsim", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "random seed")
	queries := fs.Int("queries", 100, "queries per data point")
	sizes := fs.String("sizes", "", "comma-separated network sizes for the fig6 sweeps (default 300,600,900,1200)")
	quick := fs.Bool("quick", false, "smoke run: fewer queries per point")
	parallel := fs.Int("parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = sequential); tables are identical at any setting")
	repairPeriod := fs.Duration("repair-period", 0, "anti-entropy reconciliation round interval for the churn experiment (0 = default 5s)")
	backend := fs.String("backend", "pool", "storage backend for the resilience sweep: pool (synchronous spec) or node (actor engine)")
	repair := fs.Bool("repair", false, "with -backend=node: mirror cells and restore crashes via message-driven repair")
	traceRing := fs.Int("trace-ring", 0, "flight-recorder capacity in events, 64 bytes each, for the attribution columns (0 = default 262144 = 16 MB)")
	format := fs.String("format", "text", "output format: text, csv, or markdown")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this address while running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiment given; choose from: %s, all", strings.Join(order, ", "))
	}
	if len(names) == 1 && names[0] == "all" {
		names = order
	}

	cfg := experiment.Default()
	if *quick {
		cfg = experiment.Quick()
	}
	cfg.Seed = *seed
	if !*quick {
		cfg.Queries = *queries
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		cfg.NetworkSizes = parsed
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be ≥ 0, got %d", *parallel)
	}
	cfg.Parallel = *parallel
	if *repairPeriod < 0 {
		return fmt.Errorf("-repair-period must be ≥ 0, got %v", *repairPeriod)
	}
	cfg.RepairPeriod = *repairPeriod
	switch *backend {
	case "pool", "node":
		cfg.Backend = *backend
	default:
		return fmt.Errorf("unknown backend %q; choose pool or node", *backend)
	}
	if *repair && *backend != "node" {
		return fmt.Errorf("-repair requires -backend=node (the pool backend always compares both)")
	}
	cfg.Repair = *repair
	if *traceRing < 0 {
		return fmt.Errorf("-trace-ring must be ≥ 0, got %d", *traceRing)
	}
	cfg.TraceRing = *traceRing

	var dbg *debugServer
	if *debugAddr != "" {
		var err error
		if dbg, err = newDebugServer(*debugAddr); err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.close()
		fmt.Fprintf(os.Stderr, "poolsim: debug server on http://%s (/metrics, /debug/pprof/)\n", dbg.addr())
	}

	for _, name := range names {
		r, ok := experiments[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q; choose from: %s, all", name, strings.Join(order, ", "))
		}
		start := time.Now()
		res, err := r(cfg)
		dbg.record(time.Since(start), err != nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		switch *format {
		case "text":
			fmt.Fprintln(out, res.Table.String())
		case "csv":
			fmt.Fprintf(out, "# %s\n%s\n", res.Title, res.Table.CSV())
		case "markdown":
			fmt.Fprintf(out, "### %s\n\n%s\n", res.Title, res.Table.Markdown())
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	return nil
}

// parseSizes parses a comma-separated list of positive network sizes.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad network size %q: %w", part, err)
		}
		if n < 2 {
			return nil, fmt.Errorf("network size %d too small", n)
		}
		out = append(out, n)
	}
	return out, nil
}
