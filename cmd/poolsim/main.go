// Command poolsim regenerates the paper's evaluation figures and this
// repository's ablations from the command line.
//
// Usage:
//
//	poolsim [flags] <experiment>...
//
// Experiments are the tables registered in internal/experiment (DESIGN.md
// §5 indexes them), or "all" for every one in report order; poolsim -h
// lists the names.
//
// Flags:
//
//	-seed N      random seed (default 42)
//	-queries N   queries per data point (default 100; 30 with -quick)
//	-sizes LIST  comma-separated network sizes for the fig6 sweeps
//	-quick       fewer queries, smaller sweep (smoke run)
//	-parallel N  goroutines computing at once across the whole run: tables
//	             overlap and share them (0 = GOMAXPROCS, 1 = sequential)
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

	"pooldcs/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "poolsim:", err)
		os.Exit(1)
	}
}

// tableNames lists the registry's command-line names in report order.
func tableNames() string {
	var names []string
	for _, t := range experiment.Tables() {
		names = append(names, t.Name)
	}
	return strings.Join(names, ", ")
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("poolsim", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "random seed")
	queries := fs.Int("queries", 100, "queries per data point")
	sizes := fs.String("sizes", "", "comma-separated network sizes for the fig6 sweeps (default 300,600,900,1200)")
	quick := fs.Bool("quick", false, "smoke run: fewer queries per point")
	parallel := fs.Int("parallel", 0, "goroutines computing at once across the whole run, tables overlapping (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
	repairPeriod := fs.Duration("repair-period", 0, "anti-entropy reconciliation round interval for the churn experiment (0 = default 5s)")
	backend := fs.String("backend", "pool", "storage backend for the resilience sweep: pool (synchronous spec) or node (actor engine)")
	repair := fs.Bool("repair", false, "with -backend=node: mirror cells and restore crashes via message-driven repair")
	traceRing := fs.Int("trace-ring", 0, "flight-recorder capacity in events, 64 bytes each, for the attribution columns (0 = default 262144 = 16 MB)")
	format := fs.String("format", "text", "output format: text, csv, or markdown")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this address while running")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: poolsim [flags] <experiment>...\nexperiments: %s, all\n", tableNames())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tables []experiment.Table
	switch names := fs.Args(); {
	case len(names) == 0:
		return fmt.Errorf("no experiment given; choose from: %s, all", tableNames())
	case len(names) == 1 && names[0] == "all":
		tables = experiment.Tables()
	default:
		for _, name := range names {
			t, ok := experiment.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q; choose from: %s, all", name, tableNames())
			}
			tables = append(tables, t)
		}
	}
	var render func(res *experiment.Result) string
	switch *format {
	case "text":
		render = func(res *experiment.Result) string { return res.Table.String() + "\n" }
	case "csv":
		render = func(res *experiment.Result) string { return fmt.Sprintf("# %s\n%s\n", res.Title, res.Table.CSV()) }
	case "markdown":
		render = func(res *experiment.Result) string {
			return fmt.Sprintf("### %s\n\n%s\n", res.Title, res.Table.Markdown())
		}
	default:
		return fmt.Errorf("unknown format %q; choose text, csv or markdown", *format)
	}

	cfg := experiment.Default()
	if *quick {
		cfg = experiment.Quick()
	}
	cfg.Seed = *seed
	// -quick brings its own query count unless -queries was given too.
	queriesSet := false
	fs.Visit(func(f *flag.Flag) { queriesSet = queriesSet || f.Name == "queries" })
	if !*quick || queriesSet {
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

	return experiment.RunTables(cfg, tables, func(o experiment.Outcome) error {
		dbg.record(o.Took, o.Err != nil)
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Table.Name, o.Err)
		}
		if o.Result.ID != o.Table.ID {
			return fmt.Errorf("%s: registered as result %q but produced %q", o.Table.Name, o.Table.ID, o.Result.ID)
		}
		fmt.Fprint(out, render(o.Result))
		return nil
	})
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
