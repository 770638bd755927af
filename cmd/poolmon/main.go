// Command poolmon runs an instrumented Pool deployment on the
// discrete-event kernel and reports its live metrics: per-node counters,
// hotspot and load-balance analytics, sampled time series, and
// Prometheus/JSON exports.
//
// The monitored run drives the full stack: the synchronous pool.System
// answers the range-query workload (splitter load, query fan-out), the
// asynchronous actor engine executes the same workload as real message
// exchanges (mailbox depth, in-flight operations), the discovery beacon
// protocol runs throughout, and an optional churn plan crashes part of
// the deployment while the chaos engine repairs around it. Every number
// shown is read from one metrics.Registry sampled at -tick.
//
// Usage:
//
//	poolmon [flags]
//
// Flags:
//
//	-n N          deployment size (default 300)
//	-seed N       random seed (default 42)
//	-dims K       event dimensionality (default 3)
//	-events N     events per node (default 3)
//	-queries N    range queries spread over the horizon (default 40)
//	-churn PCT    percent of nodes crashed across the horizon (default 0)
//	-repair       mirror every cell and run background anti-entropy repair
//	-autopsy      attach the flight recorder to the actor engine and export
//	              the attrib_* phase-attribution and slo_burn_* families
//	-slo D        query p99 SLO for the burn-rate accounting (default 500ms)
//	-horizon D    virtual run time (default 30s)
//	-tick D       sampling period (default 1s)
//	-top K        rows in the hotspot tables (default 5)
//	-format F     text | prom | json (default text)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/attrib"
	"pooldcs/internal/chaos"
	"pooldcs/internal/dcs"
	"pooldcs/internal/discovery"
	"pooldcs/internal/experiment"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/texttable"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "poolmon:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("poolmon", flag.ContinueOnError)
	n := fs.Int("n", 300, "deployment size")
	seed := fs.Int64("seed", 42, "random seed")
	dims := fs.Int("dims", 3, "event dimensionality")
	events := fs.Int("events", 3, "events per node")
	queries := fs.Int("queries", 40, "range queries spread over the horizon")
	churn := fs.Int("churn", 0, "percent of nodes crashed across the horizon")
	repair := fs.Bool("repair", false, "mirror every cell and run background anti-entropy repair")
	autopsy := fs.Bool("autopsy", false, "attach the flight recorder and export attrib_*/slo_burn_* families")
	slo := fs.Duration("slo", 500*time.Millisecond, "query p99 SLO for the burn-rate accounting")
	horizon := fs.Duration("horizon", 30*time.Second, "virtual run time")
	tick := fs.Duration("tick", time.Second, "sampling period")
	top := fs.Int("top", 5, "rows in the hotspot tables")
	format := fs.String("format", "text", "output format: text, prom, or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *tick <= 0 || *horizon <= 0 {
		return fmt.Errorf("tick and horizon must be positive")
	}
	if *churn < 0 || *churn > 90 {
		return fmt.Errorf("churn %d%% outside [0, 90]", *churn)
	}

	reg := metrics.New()
	src := rng.New(*seed)
	env, err := experiment.Deploy(*n, *dims, src)
	if err != nil {
		return err
	}
	sched := sim.NewScheduler()
	poolOpts := []pool.Option{pool.WithMetrics(reg)}
	if *repair {
		poolOpts = append(poolOpts, pool.WithReplication())
	}
	sys, err := env.AddPool("pool", src.Fork("pivots"), []network.Option{network.WithMetrics(reg)}, poolOpts...)
	if err != nil {
		return err
	}
	net, router := env.Arms[0].Net, env.Router
	// The actor engine shares the pool layout so both implementations
	// observe the same cells.
	var pivots []pool.CellID
	for _, p := range sys.Pools() {
		pivots = append(pivots, p.Pivot)
	}
	actors, err := node.NewEngine(net, router, sched, *dims, src.Fork("actors"), pivots)
	if err != nil {
		return err
	}
	actors.EnableMetrics(reg)
	// The flight recorder only ever hangs off the actor engine: it is the
	// layer with real virtual-time exchanges, so its query spans carry the
	// durations the attribution decomposes. Without -autopsy no tracer is
	// attached and the exposition stays byte-identical.
	var flight *trace.Tracer
	if *autopsy {
		flight = trace.NewRing(sched, autopsyRing)
		actors.SetTracer(flight)
	}
	disc := discovery.New(net, sched, src.Fork("beacons"), discovery.Config{})
	disc.EnableMetrics(reg)
	// With -repair, rejoining nodes kick an immediate reconciliation
	// round through the engine's recovery hook.
	var rec *antientropy.Reconciler
	engineOpts := []chaos.EngineOption{chaos.WithFailureDetection(disc), chaos.WithMetrics(reg)}
	if *repair {
		engineOpts = append(engineOpts, chaos.WithRecoveryHook(func(int) {
			if rec != nil {
				rec.Kick()
			}
		}))
	}
	engine := chaos.NewEngine(sched, net, router, []chaos.System{sys}, engineOpts...)
	if *repair {
		rec = antientropy.New(sched, net, router, antientropy.Config{}, sys)
		rec.EnableMetrics(reg)
	}
	if *churn > 0 {
		plan := chaos.RandomChurn(src.Fork("churn"), *n, float64(*churn)/100, 0.25, *horizon)
		if err := engine.Schedule(plan); err != nil {
			return err
		}
	}

	// Inserts spread over the first half of the horizon, queries over the
	// second; both run through the synchronous system and the actor
	// engine, so the protocol counters and the mailbox gauges move
	// together. Operations hitting crashed nodes degrade instead of
	// aborting the run — that is exactly what the drop and error counters
	// are there to show.
	gen := workload.NewUniformEvents(src.Fork("events"), *dims)
	totalEvents := *n * *events
	half := *horizon / 2
	var fatal error
	for i := 0; i < totalEvents; i++ {
		at := time.Duration(float64(i) / float64(totalEvents) * float64(half))
		origin, ev := i%*n, gen.Next()
		if err := sched.At(at, func() {
			if err := sys.Insert(origin, ev); err != nil && !dcs.IsDegradable(err) && fatal == nil {
				fatal = err
			}
			if err := actors.Insert(origin, ev, nil); err != nil && fatal == nil {
				fatal = err
			}
		}); err != nil {
			return err
		}
	}
	qgen := workload.NewQueries(src.Fork("queries"), *dims)
	sinkSrc := src.Fork("sinks")
	for i := 0; i < *queries; i++ {
		at := half + time.Duration(float64(i)/float64(*queries)*float64(half))
		sink, q := sinkSrc.Intn(*n), qgen.ExactMatch(workload.ExponentialSizes)
		if err := sched.At(at, func() {
			for engine.Down(sink) {
				sink = (sink + 1) % *n
			}
			if _, _, err := sys.QueryWithReport(sink, q); err != nil && fatal == nil {
				fatal = err
			}
			if err := actors.Query(sink, q, nil); err != nil && fatal == nil {
				fatal = err
			}
		}); err != nil {
			return err
		}
	}

	stop := reg.StartSampling(sched, *tick)
	disc.Start()
	if rec != nil {
		rec.Start()
	}
	if err := sched.At(*horizon, func() {
		stop()
		disc.Stop()
		if rec != nil {
			rec.Stop()
		}
	}); err != nil {
		return err
	}
	sched.Run()
	if fatal != nil {
		return fatal
	}
	if rec != nil {
		for _, err := range rec.Errs() {
			return err
		}
	}
	if *autopsy {
		registerAutopsy(reg, flight, *slo, *tick)
	}

	switch *format {
	case "prom":
		_, err := reg.Snapshot().WriteTo(out)
		return err
	case "json":
		return reg.Snapshot().WriteJSON(out)
	case "text":
		return renderText(out, reg, *n, *churn, *horizon, *top)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// autopsyRing is the flight-recorder capacity: large enough that a
// default poolmon horizon never evicts, bounded so a pathological run
// cannot grow without limit.
const autopsyRing = 1 << 18

// registerAutopsy attributes the recorded query spans and registers the
// attrib_* and slo_burn_* families, the burn rates as burnRates computes
// them.
func registerAutopsy(reg *metrics.Registry, flight *trace.Tracer, slo, window time.Duration) {
	_, bds := attrib.Analyze(flight, attrib.Options{})

	phases := make([]string, 0, int(attrib.NumPhases))
	for _, p := range attrib.Phases() {
		phases = append(phases, p.String())
	}
	reg.CounterVecFunc("attrib_phase_ms_total",
		"latency mass attributed to each phase across traced queries (ms)", "phase", phases,
		func(p int) uint64 {
			var ms uint64
			for _, bd := range bds {
				ms += uint64(bd.Phases[p] / time.Millisecond)
			}
			return ms
		})
	reg.CounterFunc("attrib_queries_total", "query spans decomposed by the autopsy",
		func() float64 { return float64(len(bds)) })
	if flight.Dropped() > 0 {
		reg.CounterFunc("attrib_trace_dropped_total", "flight-recorder events evicted before analysis",
			func() float64 { return float64(flight.Dropped()) })
	}

	fast, slow := burnRates(bds, slo, window)
	reg.GaugeFunc("slo_burn_fast",
		"breached-window fraction over the last 6 windows divided by the error budget",
		func() float64 { return fast })
	reg.GaugeFunc("slo_burn_slow",
		"breached-window fraction over the whole run divided by the error budget",
		func() float64 { return slow })
}

// burnRates buckets query completions into windows and returns the
// fast (last six windows) and slow (whole run) burn rates against a 5%
// error budget. The run is cut into windows from 0 to the last
// completion's, a window breaches when the 99th-percentile latency of its
// queries exceeds slo, and a window without queries counts as clean.
func burnRates(bds []attrib.Breakdown, slo, window time.Duration) (fast, slow float64) {
	const (
		budget      = 0.05
		fastWindows = 6
	)
	if len(bds) == 0 || window <= 0 {
		return 0, 0
	}
	byWindow := map[int64][]int64{}
	var last int64
	for _, bd := range bds {
		w := int64(bd.End / window)
		byWindow[w] = append(byWindow[w], int64(bd.Total/time.Millisecond))
		if w > last {
			last = w
		}
	}
	breached := func(lats []int64) bool {
		if len(lats) == 0 {
			return false
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rank := (99*len(lats) + 99) / 100
		if rank < 1 {
			rank = 1
		}
		return lats[rank-1] > int64(slo/time.Millisecond)
	}
	var total, bad, fastTotal, fastBad int
	for w := int64(0); w <= last; w++ {
		total++
		b := breached(byWindow[w])
		if b {
			bad++
		}
		if w > last-fastWindows {
			fastTotal++
			if b {
				fastBad++
			}
		}
	}
	slow = float64(bad) / float64(total) / budget
	if fastTotal > 0 {
		fast = float64(fastBad) / float64(fastTotal) / budget
	}
	return fast, slow
}

// renderText prints the human-readable report: family values, balance
// analytics, hotspot tables, and sampled series.
func renderText(out io.Writer, reg *metrics.Registry, n, churn int, horizon time.Duration, top int) error {
	fmt.Fprintf(out, "poolmon: %d-node Pool deployment, horizon %v, churn %d%%\n\n", n, horizon, churn)

	snap := reg.Snapshot()
	families := texttable.New("Metric families (scalar reductions)", "Family", "Kind", "Value")
	for _, f := range snap.Families {
		families.AddRow(f.Name, f.Kind, formatScalar(reg.Value(f.Name)))
	}
	fmt.Fprintln(out, families.String())

	balance := texttable.New("Load balance (per-node vectors)", "Vector", "Gini", "CoV", "Max", "Top share%")
	for _, name := range []string{"pool_stored_events", "node_stored_events", "net_tx_frames_total", "net_node_energy_joules"} {
		loads := reg.NodeValues(name)
		if loads == nil {
			continue
		}
		b := metrics.Analyze(loads)
		balance.AddRow(name,
			texttable.Float(b.Gini, 3),
			texttable.Float(b.CoV, 2),
			formatScalar(b.Max),
			texttable.Float(b.TopShare*100, 1))
	}
	fmt.Fprintln(out, balance.String())

	for _, name := range []string{"pool_stored_events", "net_tx_frames_total"} {
		loads := reg.NodeValues(name)
		if loads == nil {
			continue
		}
		hot := texttable.New(fmt.Sprintf("Hotspots: %s", name), "Rank", "Node", "Load", "Share%")
		for i, h := range metrics.TopK(loads, top) {
			hot.AddRow(texttable.Int(i+1), texttable.Int(h.Node),
				formatScalar(h.Load), texttable.Float(h.Share*100, 1))
		}
		fmt.Fprintln(out, hot.String())
	}

	series := texttable.New("Sampled series", "Series", "Points", "First", "Last", "Min", "Mean", "Max", "Trend")
	for _, s := range reg.Summaries(16) {
		series.AddRow(s.Name, texttable.Int(s.Points),
			formatScalar(s.First), formatScalar(s.Last),
			formatScalar(s.Min), texttable.Float(s.Mean, 1), formatScalar(s.Max),
			s.Spark)
	}
	fmt.Fprintln(out, series.String())
	return nil
}

// formatScalar renders a metric value compactly: integers without a
// fraction, everything else with three significant decimals.
func formatScalar(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
