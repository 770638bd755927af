package load_test

import (
	"strings"
	"testing"
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/experiment"
	"pooldcs/internal/load"
	"pooldcs/internal/metrics"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
)

// runAutopsy deploys backend fresh and executes one load run with the
// autopsy enabled over a ring of ringCap events.
func runAutopsy(t *testing.T, backend string, cfg load.Config, ringCap int, reg *metrics.Registry) (*load.Report, *trace.Tracer) {
	t.Helper()
	sched := sim.NewScheduler()
	target, err := experiment.DeployLoad(backend, 60, cfg.Dims, 2, rng.New(cfg.Seed), sched)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := load.NewEngine(sched, target, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewRing(sched, ringCap)
	eng.EnableAutopsy(tr)
	eng.EnableAutopsyMetrics(reg)
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr
}

// overloadCfg offers well past the station model's capacity so SLO
// windows breach and the autopsy has something to capture.
func overloadCfg(seed int64) load.Config {
	return load.Config{Seed: seed, Rate: 300, Duration: 4 * time.Second, Dims: 3}
}

func TestAutopsyCapturesExemplars(t *testing.T) {
	rep, _ := runAutopsy(t, "pool", overloadCfg(61), 1<<16, nil)
	if rep.SLOWindows == rep.SLOOK {
		t.Fatal("overload run breached no SLO windows; nothing to test")
	}
	if len(rep.Exemplars) == 0 {
		t.Fatal("breached windows captured no exemplars")
	}
	breached := rep.SLOWindows - rep.SLOOK
	if len(rep.Exemplars) > breached*load.ExemplarsPerWindow {
		t.Fatalf("%d exemplars from %d breached windows (cap %d/window)",
			len(rep.Exemplars), breached, load.ExemplarsPerWindow)
	}
	lastW := int64(-1)
	for _, ex := range rep.Exemplars {
		if ex.Window < lastW {
			t.Fatalf("exemplars out of window order: %d after %d", ex.Window, lastW)
		}
		lastW = ex.Window
		if ex.Latency <= 0 {
			t.Errorf("window %d exemplar has no latency", ex.Window)
		}
		if ex.Truncated {
			continue
		}
		var sum time.Duration
		for _, d := range ex.Breakdown.Phases {
			sum += d
		}
		if sum != ex.Breakdown.Total {
			t.Errorf("window %d exemplar: phases sum %v, total %v", ex.Window, sum, ex.Breakdown.Total)
		}
		// A station-model exemplar past the knee is dominated by
		// queueing; it must at least register the phase.
		if ex.Breakdown.Phases[attrib.PhaseQueue] <= 0 {
			t.Errorf("window %d exemplar charged no queueing under overload", ex.Window)
		}
	}
}

func TestAutopsyBurnRates(t *testing.T) {
	rep, _ := runAutopsy(t, "pool", overloadCfg(62), 1<<16, nil)
	n, bad := rep.SLOWindows, rep.SLOWindows-rep.SLOOK
	if n == 0 || bad == 0 {
		t.Fatal("overload run breached no windows")
	}
	wantSlow := float64(bad) / float64(n) / load.DefaultSLO.Budget
	if rep.BurnSlow != wantSlow {
		t.Errorf("slow burn %g, want %g", rep.BurnSlow, wantSlow)
	}
	if rep.BurnFast <= 0 {
		t.Error("sustained overload shows zero fast burn")
	}
	// An overload that persists to the end of the run burns the last
	// windows at least as hard as the whole-run average.
	if rep.BurnFast < rep.BurnSlow {
		t.Errorf("fast burn %g below slow burn %g under sustained overload", rep.BurnFast, rep.BurnSlow)
	}

	// A healthy run burns nothing.
	healthy, _ := runAutopsy(t, "pool", load.Config{Seed: 63, Rate: 20, Duration: 4 * time.Second, Dims: 3}, 1<<16, nil)
	if healthy.SLOOK != healthy.SLOWindows {
		t.Fatalf("light load breached %d windows", healthy.SLOWindows-healthy.SLOOK)
	}
	if healthy.BurnFast != 0 || healthy.BurnSlow != 0 {
		t.Errorf("healthy run burns budget: fast=%g slow=%g", healthy.BurnFast, healthy.BurnSlow)
	}
	if len(healthy.Exemplars) != 0 {
		t.Errorf("healthy run captured %d exemplars", len(healthy.Exemplars))
	}
}

// TestAutopsyRingEviction runs the same overload through a tiny ring:
// capture must stay safe (no panic, exemplars still produced) with at
// worst truncated breakdowns.
func TestAutopsyRingEviction(t *testing.T) {
	rep, tr := runAutopsy(t, "pool", overloadCfg(64), 256, nil)
	if tr.Dropped() == 0 {
		t.Fatal("256-event ring dropped nothing under overload")
	}
	if len(rep.Exemplars) == 0 {
		t.Fatal("eviction suppressed all exemplars")
	}
	for _, ex := range rep.Exemplars {
		var sum time.Duration
		for _, d := range ex.Breakdown.Phases {
			sum += d
		}
		if sum != ex.Breakdown.Total {
			t.Errorf("window %d exemplar: phases sum %v, total %v", ex.Window, sum, ex.Breakdown.Total)
		}
	}
}

// TestAutopsyDoesNotChangeOutcomes is the observability contract: the
// autopsy watches the run, it must not alter it.
func TestAutopsyDoesNotChangeOutcomes(t *testing.T) {
	cfg := overloadCfg(65)
	cfg.Admission = load.AdmissionConfig{Policy: load.ShedOnDepth, HighDepth: 4, LowDepth: 2}
	plain := summarize(runOnce(t, "pool", cfg))
	traced, _ := runAutopsy(t, "pool", cfg, 1<<16, nil)
	if got := summarize(traced); got != plain {
		t.Errorf("autopsy changed run outcomes:\n  plain=%+v\n  autopsy=%+v", plain, got)
	}
}

// TestAutopsyActorBackend runs the autopsy against the actor engine:
// spans must nest into real hop-by-hop traffic and still account
// exactly.
func TestAutopsyActorBackend(t *testing.T) {
	rep, tr := runAutopsy(t, "pool-actor", load.Config{Seed: 66, Rate: 150, Duration: 4 * time.Second, Dims: 3}, 1<<18, nil)
	if rep.Served == 0 {
		t.Fatal("no traffic served")
	}
	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	bds := attrib.Attribute(tr.Events(), a, attrib.Options{})
	if len(bds) == 0 {
		t.Fatal("actor run attributed no query spans")
	}
	var transmit time.Duration
	for _, bd := range bds {
		var sum time.Duration
		for _, d := range bd.Phases {
			sum += d
		}
		if sum != bd.Total {
			t.Fatalf("span %d: phases sum %v, total %v", bd.Span, sum, bd.Total)
		}
		transmit += bd.Phases[attrib.PhaseTransmit]
	}
	if transmit <= 0 {
		t.Error("actor-engine queries charged no transmit time")
	}
}

func TestAutopsyMetricsFamilies(t *testing.T) {
	reg := metrics.New()
	rep, _ := runAutopsy(t, "pool", overloadCfg(67), 1<<16, reg)
	if len(rep.Exemplars) == 0 {
		t.Fatal("no exemplars captured")
	}
	// Every family is a view of the report: the phase masses sum each
	// exemplar's truncated milliseconds, not the truncated total.
	phaseMs := make([]float64, attrib.NumPhases)
	for _, ex := range rep.Exemplars {
		for p, d := range ex.Breakdown.Phases {
			phaseMs[p] += float64(d / time.Millisecond)
		}
	}
	want := map[string][]float64{
		"attrib_phase_ms_total":  phaseMs,
		"attrib_exemplars_total": {float64(len(rep.Exemplars))},
		"slo_burn_fast":          {rep.BurnFast},
		"slo_burn_slow":          {rep.BurnSlow},
	}
	checkFamilies(t, reg, want)
	text := reg.Snapshot().Text()
	if !strings.Contains(text, "attrib_phase_ms_total{phase=\"queue\"}") {
		t.Errorf("exposition missing the queue phase:\n%s", text)
	}
}
