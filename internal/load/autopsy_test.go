package load_test

import (
	"testing"
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/experiment"
	"pooldcs/internal/load"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
)

// runAutopsy deploys backend fresh and executes one load run with the
// autopsy enabled over a ring of ringCap events.
func runAutopsy(t *testing.T, backend string, cfg load.Config, ringCap int) (*load.Report, *trace.Tracer) {
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
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr
}

// overloadCfg offers well past the station model's capacity so SLO
// windows breach and queueing dominates the latency.
func overloadCfg(seed int64) load.Config {
	return load.Config{Seed: seed, Rate: 300, Duration: 4 * time.Second, Dims: 3}
}

// checkSums fails unless every breakdown's phases sum to its total, and
// returns the queueing mass over all of them.
func checkSums(t *testing.T, bds []attrib.Breakdown) (queue time.Duration) {
	t.Helper()
	for _, bd := range bds {
		var sum time.Duration
		for _, d := range bd.Phases {
			sum += d
		}
		if sum != bd.Total {
			t.Errorf("span %d: phases sum %v, total %v", bd.Span, sum, bd.Total)
		}
		queue += bd.Phases[attrib.PhaseQueue]
	}
	return queue
}

// TestAutopsyStationAttribution reads the station model's wait/serve
// records back out of the ring: every query breakdown sums to its total,
// and past the knee the queue phase carries latency.
func TestAutopsyStationAttribution(t *testing.T) {
	rep, tr := runAutopsy(t, "pool", overloadCfg(61), 1<<16)
	if rep.SLOWindows == rep.SLOOK {
		t.Fatal("overload run breached no SLO windows; nothing to test")
	}
	_, bds := attrib.Analyze(tr, attrib.Options{})
	if len(bds) == 0 {
		t.Fatal("overload run attributed no query spans")
	}
	if checkSums(t, bds) <= 0 {
		t.Error("station-model queries charged no queueing under overload")
	}
}

// TestAutopsyRingEviction runs the same overload through a tiny ring:
// the ring drops events, and every breakdown that survives eviction
// still sums to its total.
func TestAutopsyRingEviction(t *testing.T) {
	_, tr := runAutopsy(t, "pool", overloadCfg(64), 256)
	if tr.Dropped() == 0 {
		t.Fatal("256-event ring dropped nothing under overload")
	}
	_, bds := attrib.Analyze(tr, attrib.Options{})
	if len(bds) == 0 {
		t.Fatal("eviction left no query span to attribute")
	}
	checkSums(t, bds)
}

// TestAutopsyDoesNotChangeOutcomes is the observability contract: the
// autopsy watches the run, it must not alter it.
func TestAutopsyDoesNotChangeOutcomes(t *testing.T) {
	cfg := overloadCfg(65)
	cfg.Admission = load.AdmissionConfig{Policy: load.ShedOnDepth, HighDepth: 4, LowDepth: 2}
	plain := summarize(runOnce(t, "pool", cfg))
	traced, _ := runAutopsy(t, "pool", cfg, 1<<16)
	if got := summarize(traced); got != plain {
		t.Errorf("autopsy changed run outcomes:\n  plain=%+v\n  autopsy=%+v", plain, got)
	}
}

// TestAutopsyActorBackend runs the autopsy against the actor engine:
// spans must nest into real hop-by-hop traffic and still account
// exactly.
func TestAutopsyActorBackend(t *testing.T) {
	rep, tr := runAutopsy(t, "pool-actor", load.Config{Seed: 66, Rate: 150, Duration: 4 * time.Second, Dims: 3}, 1<<18)
	if rep.Served == 0 {
		t.Fatal("no traffic served")
	}
	_, bds := attrib.Analyze(tr, attrib.Options{})
	if len(bds) == 0 {
		t.Fatal("actor run attributed no query spans")
	}
	checkSums(t, bds)
	var transmit time.Duration
	for _, bd := range bds {
		transmit += bd.Phases[attrib.PhaseTransmit]
	}
	if transmit <= 0 {
		t.Error("actor-engine queries charged no transmit time")
	}
}
