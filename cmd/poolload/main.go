// Command poolload drives a DCS deployment with sustained traffic and
// prints the throughput-vs-latency curve: the service-level view
// (delivered throughput, tail latency, SLO compliance, shed rate) that
// the per-query message tables of poolsim cannot show.
//
// Usage:
//
//	poolload [flags]
//
// A run sweeps offered load over one backend. In open-loop mode each
// sweep point offers Poisson (or uniformly spaced) arrivals at a fixed
// rate regardless of how the system copes — the regime that exposes the
// saturation knee. In closed-loop mode a fixed client population waits
// for each completion before issuing again, which self-throttles and
// hides the knee; sweeping -clients shows that contrast directly.
//
// Flags:
//
//	-seed N          random seed (default 42)
//	-backend B       pool | dim | ght | pool-actor (default pool)
//	-mode M          open | closed (default open)
//	-arrival A       poisson | uniform open-loop arrivals (default poisson)
//	-rates LIST      open-loop offered rates swept, ops/sec (default 25,50,100,200,400)
//	-clients LIST    closed-loop client populations swept (default 4,16,64)
//	-think D         closed-loop mean think time (default 20ms)
//	-duration D      offered-traffic horizon per point (default 5s)
//	-admission P     admit-all | shed | token | both (default both; both = admit-all and shed)
//	-token-rate R    token-bucket sustained admissions/sec per station (default 100)
//	-batch N         coalesce up to N engaged queries instead of shedding (default 0 = reject)
//	-mix P,R,I       class weights point,range,insert (default 0.6,0.3,0.1; ght: 0.9,0,0.1)
//	-skew S          Zipf exponent of query/event populations (default 0.8)
//	-bins N          Zipf bins (default 64)
//	-nodes N         deployment size (default 300)
//	-events-per-node N  preloaded events per sensor (default 3)
//	-slo-p99 D       per-window p99 target (default 500ms)
//	-slo-window D    SLO evaluation window (default 2s)
//	-quick           smaller deployment, shorter horizon (smoke run)
//	-format F        text | csv | markdown (default text)
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
	"pooldcs/internal/load"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/texttable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "poolload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("poolload", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "random seed")
	backend := fs.String("backend", "pool", "backend: "+strings.Join(experiment.LoadBackends(), " | "))
	modeFlag := fs.String("mode", "open", "arrival regime: open | closed")
	arrivalFlag := fs.String("arrival", "poisson", "open-loop arrival process: poisson | uniform")
	ratesFlag := fs.String("rates", "25,50,100,200,400", "comma-separated open-loop offered rates (ops/sec)")
	clientsFlag := fs.String("clients", "4,16,64", "comma-separated closed-loop client populations")
	think := fs.Duration("think", 20*time.Millisecond, "closed-loop mean think time")
	duration := fs.Duration("duration", 5*time.Second, "offered-traffic horizon per sweep point (virtual time)")
	admissionFlag := fs.String("admission", "both", "admission policy: admit-all | shed | token | both")
	tokenRate := fs.Float64("token-rate", 100, "token-bucket sustained admissions/sec per station")
	batch := fs.Int("batch", 0, "coalesce up to N engaged queries into one batch instead of shedding (0 = reject)")
	mixFlag := fs.String("mix", "", "class weights point,range,insert (default 0.6,0.3,0.1; ght defaults to 0.9,0,0.1)")
	skew := fs.Float64("skew", 0.8, "Zipf exponent of the query and event populations")
	bins := fs.Int("bins", 64, "Zipf bins")
	nodes := fs.Int("nodes", 300, "deployment size")
	perNode := fs.Int("events-per-node", 3, "preloaded events per sensor")
	sloP99 := fs.Duration("slo-p99", 500*time.Millisecond, "per-window p99 latency target")
	sloWindow := fs.Duration("slo-window", 2*time.Second, "SLO evaluation window")
	quick := fs.Bool("quick", false, "smoke run: smaller deployment, shorter horizon")
	format := fs.String("format", "text", "output format: text, csv, or markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (poolload takes only flags)", fs.Arg(0))
	}

	if *quick {
		*nodes = 120
		*duration = 3 * time.Second
	}

	var mode load.Mode
	switch *modeFlag {
	case "open":
		mode = load.Open
	case "closed":
		mode = load.Closed
	default:
		return fmt.Errorf("unknown mode %q (open | closed)", *modeFlag)
	}
	var arrival load.ArrivalKind
	switch *arrivalFlag {
	case "poisson":
		arrival = load.Poisson
	case "uniform":
		arrival = load.Uniform
	default:
		return fmt.Errorf("unknown arrival %q (poisson | uniform)", *arrivalFlag)
	}

	var policies []load.Policy
	switch *admissionFlag {
	case "admit-all":
		policies = []load.Policy{load.AdmitAll}
	case "shed":
		policies = []load.Policy{load.ShedOnDepth}
	case "token":
		policies = []load.Policy{load.TokenBucket}
	case "both":
		policies = []load.Policy{load.AdmitAll, load.ShedOnDepth}
	default:
		return fmt.Errorf("unknown admission policy %q (admit-all | shed | token | both)", *admissionFlag)
	}

	mix, err := parseMix(*mixFlag, *backend)
	if err != nil {
		return err
	}

	// The sweep variable: offered rate (open loop) or population (closed).
	var sweep []float64
	var sweepCol string
	if mode == load.Open {
		sweepCol = "offered/s"
		if sweep, err = parseFloats(*ratesFlag); err != nil {
			return fmt.Errorf("-rates: %w", err)
		}
	} else {
		sweepCol = "clients"
		if sweep, err = parseFloats(*clientsFlag); err != nil {
			return fmt.Errorf("-clients: %w", err)
		}
	}

	tbl := texttable.New(
		fmt.Sprintf("poolload: %s, %s loop, %d nodes, %v horizon (virtual), SLO p99<%v per %v",
			*backend, *modeFlag, *nodes, *duration, *sloP99, *sloWindow),
		"admission", sweepCol, "offered", "served/s", "shed%", "degraded", "p50ms", "p99ms", "slo%", "maxdepth", "abandoned")

	for _, policy := range policies {
		for _, x := range sweep {
			cfg := load.Config{
				Seed:     *seed,
				Mode:     mode,
				Arrival:  arrival,
				Duration: *duration,
				Dims:     3,
				Mix:      mix,
				Skew:     *skew,
				Bins:     *bins,
				SLO:      load.SLO{Window: *sloWindow, P99: *sloP99},
				Admission: load.AdmissionConfig{
					Policy:     policy,
					Rate:       *tokenRate,
					BatchLimit: *batch,
				},
			}
			if mode == load.Open {
				cfg.Rate = x
			} else {
				cfg.Clients = int(x)
				cfg.Think = *think
			}
			rep, err := runPoint(*backend, *nodes, *perNode, cfg)
			if err != nil {
				return err
			}
			q := rep.QueryLatency()
			tbl.AddRow(
				policy.String(),
				texttable.Float(x, 0),
				strconv.FormatUint(rep.Offered, 10),
				texttable.Float(rep.ServedPerSec(), 1),
				texttable.Float(rep.ShedPct(), 1),
				strconv.FormatUint(rep.Degraded, 10),
				texttable.Int(int(q.Quantile(50))),
				texttable.Int(int(q.Quantile(99))),
				texttable.Float(rep.SLOPct(), 0),
				texttable.Int(rep.MaxDepth),
				strconv.FormatUint(rep.Abandoned, 10),
			)
		}
	}

	switch *format {
	case "text":
		fmt.Fprintln(out, tbl.String())
	case "csv":
		fmt.Fprintf(out, "# %s\n%s\n", tbl.Title, tbl.CSV())
	case "markdown":
		fmt.Fprintf(out, "### %s\n\n%s\n", tbl.Title, tbl.Markdown())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

// runPoint deploys the backend fresh and executes one sweep point, so
// points are independent and the sweep order cannot leak state.
func runPoint(backend string, nodes, perNode int, cfg load.Config) (*load.Report, error) {
	sched := sim.NewScheduler()
	target, err := experiment.DeployLoad(backend, nodes, cfg.Dims, perNode, rng.New(cfg.Seed), sched)
	if err != nil {
		return nil, err
	}
	eng, err := load.NewEngine(sched, target, nodes, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// parseMix parses "point,range,insert" weights; empty picks the backend
// default (ght has no range-query support, so its default mix omits
// ranges).
func parseMix(s, backend string) (load.Mix, error) {
	if s == "" {
		if backend == "ght" {
			return load.Mix{Point: 0.9, Insert: 0.1}, nil
		}
		return load.DefaultMix, nil
	}
	parts, err := parseFloats(s)
	if err != nil {
		return load.Mix{}, fmt.Errorf("-mix: %w", err)
	}
	if len(parts) != 3 {
		return load.Mix{}, fmt.Errorf("-mix needs three weights point,range,insert, got %d", len(parts))
	}
	return load.Mix{Point: parts[0], Range: parts[1], Insert: parts[2]}, nil
}

// parseFloats parses a comma-separated list of non-negative numbers.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative value %g", v)
		}
		out = append(out, v)
	}
	return out, nil
}
