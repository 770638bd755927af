package load

import (
	"testing"
	"time"

	"pooldcs/internal/metrics"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// runOnce deploys backend fresh and executes one load run.
func runOnce(t *testing.T, backend string, cfg Config) *Report {
	t.Helper()
	sched := sim.NewScheduler()
	dep, err := Deploy(backend, 60, cfg.Dims, 2, rng.New(cfg.Seed), sched, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sched, dep.Target, dep.Nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// summarize flattens a report into comparable numbers (histograms are
// pointers, so reports cannot be compared directly).
type summary struct {
	offered, served, shed, degraded, abandoned, inHorizon uint64
	windows, ok, maxDepth, engagements                    int
	p50, p99                                              int64
}

func summarize(r *Report) summary {
	q := r.QueryLatency()
	return summary{
		offered: r.Offered, served: r.Served, shed: r.Shed,
		degraded: r.Degraded, abandoned: r.Abandoned, inHorizon: r.ServedInHorizon,
		windows: r.SLOWindows, ok: r.SLOOK, maxDepth: r.MaxDepth,
		engagements: r.Engagements, p50: q.Quantile(50), p99: q.Quantile(99),
	}
}

func TestEngineDeterminism(t *testing.T) {
	cfg := Config{
		Seed: 7, Rate: 80, Duration: 3 * time.Second, Dims: 3,
		Admission: AdmissionConfig{Policy: ShedOnDepth},
	}
	for _, backend := range []string{"pool", "dim", "ght", "pool-actor"} {
		c := cfg
		if backend == "ght" {
			// GHT has no range-query support; offer only supported classes.
			c.Mix = Mix{Point: 0.9, Insert: 0.1}
		}
		a := summarize(runOnce(t, backend, c))
		b := summarize(runOnce(t, backend, c))
		if a != b {
			t.Errorf("%s: identical seeds diverged:\n  a=%+v\n  b=%+v", backend, a, b)
		}
		if a.offered == 0 || a.served == 0 {
			t.Errorf("%s: no traffic flowed: %+v", backend, a)
		}
	}
}

// TestEngineKnee is the acceptance property: past saturation, the
// admit-all open loop sees super-linear p99 growth while depth-shedding
// keeps p99 bounded at the cost of explicit rejections.
func TestEngineKnee(t *testing.T) {
	for _, backend := range []string{"pool", "dim"} {
		base := Config{Seed: 42, Rate: 300, Duration: 4 * time.Second, Dims: 3}

		open := runOnce(t, backend, base)
		if open.Shed != 0 {
			t.Fatalf("%s admit-all shed %d ops", backend, open.Shed)
		}
		openP99 := open.QueryLatency().Quantile(99)

		shedCfg := base
		// Tight thresholds: bound the wait a served query can see to a few
		// service times, holding p99 under the default 500ms SLO target.
		shedCfg.Admission = AdmissionConfig{Policy: ShedOnDepth, HighDepth: 4, LowDepth: 2}
		shed := runOnce(t, backend, shedCfg)
		shedP99 := shed.QueryLatency().Quantile(99)

		if openP99 < 4*shedP99 {
			t.Errorf("%s: admit-all p99 %dms not ≫ shed p99 %dms", backend, openP99, shedP99)
		}
		if shed.Shed == 0 || shed.Engagements == 0 {
			t.Errorf("%s: shedding never engaged past the knee: shed=%d engagements=%d",
				backend, shed.Shed, shed.Engagements)
		}
		if open.SLOPct() >= shed.SLOPct() {
			t.Errorf("%s: SLO compliance did not improve with shedding: %.0f%% vs %.0f%%",
				backend, open.SLOPct(), shed.SLOPct())
		}
		// Throughput flattens at capacity: the overloaded open loop cannot
		// serve meaningfully more per second inside the horizon than the
		// shedding run admits.
		if open.ServedPerSec() > 1.5*float64(base.Rate) {
			t.Errorf("%s: served %.0f/s exceeds offered %g/s", backend, open.ServedPerSec(), base.Rate)
		}
	}
}

func TestEngineZeroRate(t *testing.T) {
	rep := runOnce(t, "pool", Config{Seed: 1, Rate: 0, Duration: time.Second, Dims: 3})
	if rep.Offered != 0 || rep.Served != 0 || rep.SLOWindows != 0 {
		t.Fatalf("zero-rate run saw traffic: %+v", summarize(rep))
	}
	if rep.SLOPct() != 100 {
		t.Fatalf("empty run SLO = %g%%, want vacuous 100%%", rep.SLOPct())
	}
}

func TestEngineClosedLoop(t *testing.T) {
	rep := runOnce(t, "pool", Config{
		Seed: 3, Mode: Closed, Clients: 8, Think: 20 * time.Millisecond,
		Duration: 3 * time.Second, Dims: 3,
	})
	if rep.Mode != "closed" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	if rep.Offered == 0 || rep.Served == 0 {
		t.Fatal("closed loop offered nothing")
	}
	// A closed loop self-throttles: the station can never hold more than
	// the client population.
	if rep.MaxDepth > 8 {
		t.Fatalf("max depth %d exceeds client population 8", rep.MaxDepth)
	}
	if rep.Abandoned != 0 {
		t.Fatalf("closed loop abandoned %d ops", rep.Abandoned)
	}
}

func TestEngineUniformArrivals(t *testing.T) {
	rep := runOnce(t, "pool", Config{
		Seed: 5, Arrival: Uniform, Rate: 50, Duration: 2 * time.Second, Dims: 3,
	})
	if rep.Mode != "open/uniform" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	// Deterministic spacing: exactly rate×duration arrivals fit the
	// horizon (first at 20ms, last at 2s).
	if rep.Offered != 100 {
		t.Fatalf("offered %d ops, want exactly 100", rep.Offered)
	}
}

func TestEngineRejectsUnsupportedMix(t *testing.T) {
	sched := sim.NewScheduler()
	dep, err := Deploy("ght", 40, 3, 1, rng.New(1), sched, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	// GHT cannot serve range queries; the default mix includes them.
	if _, err := NewEngine(sched, dep.Target, dep.Nodes, Config{
		Seed: 1, Rate: 10, Duration: time.Second, Dims: 3,
	}); err == nil {
		t.Fatal("engine accepted range queries for ght")
	}
}

func TestEngineBatching(t *testing.T) {
	rep := runOnce(t, "pool", Config{
		Seed: 11, Rate: 300, Duration: 4 * time.Second, Dims: 3,
		Admission: AdmissionConfig{Policy: ShedOnDepth, BatchLimit: 8},
	})
	if rep.Degraded == 0 {
		t.Fatal("overloaded run with batching never degraded")
	}
	if rep.Shed != 0 {
		t.Fatalf("batching config shed %d ops", rep.Shed)
	}
	// Degraded operations still complete and count as served.
	if rep.Served < rep.Degraded {
		t.Fatalf("served %d < degraded %d", rep.Served, rep.Degraded)
	}
}

func TestEngineMetrics(t *testing.T) {
	sched := sim.NewScheduler()
	dep, err := Deploy("dim", 60, 3, 2, rng.New(9), sched, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sched, dep.Target, dep.Nodes, Config{
		Seed: 9, Rate: 150, Duration: 3 * time.Second, Dims: 3,
		Admission: AdmissionConfig{Policy: ShedOnDepth},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	eng.EnableMetrics(reg)
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	ops := reg.NodeValues("load_ops_total")
	var offered float64
	for _, v := range ops {
		offered += v
	}
	if uint64(offered) != rep.Offered {
		t.Errorf("load_ops_total = %g, report offered %d", offered, rep.Offered)
	}
	out := reg.NodeValues("load_outcomes_total")
	if uint64(out[0]) != rep.Served || uint64(out[1]) != rep.Shed ||
		uint64(out[2]) != rep.Degraded || uint64(out[3]) != rep.Abandoned {
		t.Errorf("load_outcomes_total = %v, report %+v", out, summarize(rep))
	}
	if int(reg.Value("load_slo_windows_total")) != rep.SLOWindows {
		t.Errorf("slo windows metric %g, report %d", reg.Value("load_slo_windows_total"), rep.SLOWindows)
	}
	if int(reg.Value("load_slo_violations_total")) != rep.SLOWindows-rep.SLOOK {
		t.Errorf("slo violations metric %g, report %d", reg.Value("load_slo_violations_total"), rep.SLOWindows-rep.SLOOK)
	}
	if reg.Value("load_inflight_ops") != float64(rep.Abandoned) {
		t.Errorf("inflight gauge %g, abandoned %d", reg.Value("load_inflight_ops"), rep.Abandoned)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},                      // no duration
		{Duration: time.Second}, // no dims
		{Duration: time.Second, Dims: 3, Rate: -1},
		{Duration: time.Second, Dims: 3, Mode: Closed},
		{Duration: time.Second, Dims: 3, Mix: Mix{Point: -1}},
		{Duration: time.Second, Dims: 3, Admission: AdmissionConfig{Policy: TokenBucket}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
}

func TestDeployUnknownBackend(t *testing.T) {
	if _, err := Deploy("nosuch", 10, 3, 1, rng.New(1), sim.NewScheduler(), CostModel{}); err == nil {
		t.Fatal("unknown backend deployed")
	}
}
