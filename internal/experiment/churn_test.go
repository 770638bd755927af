package experiment

import (
	"strconv"
	"testing"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/chaos"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/pooltest"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

func TestChurnDeterministic(t *testing.T) {
	cfg := Quick()
	pcts := []int{0, 10}
	a, err := Churn(cfg, pcts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(cfg, pcts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different tables:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

func TestChurnDegradesGracefully(t *testing.T) {
	cfg := Quick()
	res, err := Churn(cfg, []int{0, 5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(row, col int) float64 {
		v, err := strconv.ParseFloat(res.Table.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	const (
		poolRecall = 1
		poolCompl  = 2
		replRecall = 4
		replCompl  = 5
		dimRecall  = 7
		ghtRecall  = 10
		ghtCompl   = 11
		detectP50  = 13
		detectP95  = 14
		aeSyms     = 16
		aeKB       = 17
		snapKB     = 18
		convP95    = 19
		nodeRecall = 20
		nodeCompl  = 21
		quietP95   = 22
		busyP95    = 23
		repP50     = 24
		repP95     = 25
		repKB      = 26
	)
	for row := range res.Table.Rows {
		pct := int(cell(row, 0))
		for _, col := range []int{poolRecall, poolCompl, replRecall, replCompl, dimRecall, ghtRecall, ghtCompl} {
			if v := cell(row, col); v < 0 || v > 1 {
				t.Errorf("pct %d col %d: %v outside [0,1]", pct, col, v)
			}
		}
		if pct == 0 {
			for _, col := range []int{poolRecall, poolCompl, replRecall, replCompl, dimRecall, ghtRecall, ghtCompl} {
				if v := cell(row, col); v != 1 {
					t.Errorf("no churn, col %d: %v, want exactly 1", col, v)
				}
			}
			// No crashes → nothing to detect.
			for _, col := range []int{detectP50, detectP95} {
				if v := cell(row, col); v != 0 {
					t.Errorf("no churn, detect col %d: %v ms, want 0", col, v)
				}
			}
		} else {
			// Detection latency is emergent: at least one beacon period must
			// pass before a corpse is suspected, and the distribution must
			// stay under the beacon timeout plus one sweep period.
			interval := float64(churnBeaconInterval.Milliseconds())
			p50, p95 := cell(row, detectP50), cell(row, detectP95)
			if p50 < interval {
				t.Errorf("pct %d: detect p50 %v ms < one beacon period", pct, p50)
			}
			if p95 < p50 {
				t.Errorf("pct %d: detect p95 %v < p50 %v", pct, p95, p50)
			}
			cfg := discovery.Config{Interval: churnBeaconInterval}
			if max := float64((cfg.Timeout() + cfg.Interval + cfg.Jitter()).Milliseconds()); p95 > max {
				t.Errorf("pct %d: detect p95 %v ms > timeout+period bound %v ms", pct, p95, max)
			}
		}
		// The acceptance bar: mirroring holds recall ≥ 0.98 through 10%
		// churn. (With beacon-timeout detection the undetected window is
		// ~3.75 s instead of the 2 s the engine used to be configured with,
		// so slightly more double-copy losses slip through than before.)
		if pct <= 10 {
			if v := cell(row, replRecall); v < 0.98 {
				t.Errorf("replicated recall %v at %d%% churn, want ≥ 0.98", v, pct)
			}
		}
	}
	// The anti-entropy cost comparison. Rateless overhead tracks how much
	// actually diverged: with no churn nothing does, so the stream is the
	// one-symbol-per-pair equality confirmation, while the snapshot
	// baseline already re-ships whole stores every round. Under churn the
	// rateless cost grows with the repair work, the divergence-window
	// histogram records real closures, and the snapshot baseline stays a
	// multiple of the rateless cost.
	for row := range res.Table.Rows {
		pct := int(cell(row, 0))
		ae, snap := cell(row, aeKB), cell(row, snapKB)
		if ae <= 0 || snap <= 0 {
			t.Fatalf("pct %d: repair traffic absent (AE %v KB, snapshot %v KB)", pct, ae, snap)
		}
		if snap < 2*ae {
			t.Errorf("pct %d: snapshot baseline %v KB not clearly above rateless %v KB", pct, snap, ae)
		}
		if pct == 0 {
			if v := cell(row, convP95); v != 0 {
				t.Errorf("no churn: convergence p95 %v ms, want 0 (nothing diverged)", v)
			}
		} else {
			if v := cell(row, convP95); v <= 0 {
				t.Errorf("pct %d: convergence p95 %v ms, want > 0", pct, v)
			}
			if cell(row, aeSyms) <= cell(0, aeSyms) {
				t.Errorf("pct %d: %v coded symbols, want more than the no-churn %v",
					pct, cell(row, aeSyms), cell(0, aeSyms))
			}
			if ae <= cell(0, aeKB) {
				t.Errorf("pct %d: rateless %v KB, want more than the no-churn %v KB",
					pct, ae, cell(0, aeKB))
			}
		}
	}

	// The actor universe's interference columns. With no churn there is
	// nothing to repair: every probe is quiet and complete, and the
	// repair columns are all zero. Under churn, message-driven repairs
	// actually ran — and the probes that addressed a mid-repair cell
	// paid for it: their p95 must sit above the quiet p95, because a
	// dead leg costs the full per-hop ARQ budget before the mirror
	// fallback even starts, and transfer chunks contend for the same
	// service queues.
	for row := range res.Table.Rows {
		pct := int(cell(row, 0))
		for _, col := range []int{nodeRecall, nodeCompl} {
			if v := cell(row, col); v < 0 || v > 1 {
				t.Errorf("pct %d col %d: %v outside [0,1]", pct, col, v)
			}
		}
		if v := cell(row, quietP95); v <= 0 {
			t.Errorf("pct %d: quiet probe p95 %v ms, want > 0", pct, v)
		}
		if pct == 0 {
			for _, col := range []int{nodeRecall, nodeCompl} {
				if v := cell(row, col); v != 1 {
					t.Errorf("no churn, node col %d: %v, want exactly 1", col, v)
				}
			}
			for _, col := range []int{busyP95, repP50, repP95, repKB} {
				if v := cell(row, col); v != 0 {
					t.Errorf("no churn, repair col %d: %v, want 0 (nothing repaired)", col, v)
				}
			}
		} else {
			if busy, quiet := cell(row, busyP95), cell(row, quietP95); busy <= quiet {
				t.Errorf("pct %d: degraded-probe p95 %v ms not above quiet p95 %v ms — repair traffic came for free", pct, busy, quiet)
			}
			p50, p95 := cell(row, repP50), cell(row, repP95)
			if p50 <= 0 {
				t.Errorf("pct %d: repair p50 %v ms, want > 0", pct, p50)
			}
			if p95 < p50 {
				t.Errorf("pct %d: repair p95 %v < p50 %v", pct, p95, p50)
			}
			if v := cell(row, repKB); v <= 0 {
				t.Errorf("pct %d: repair traffic %v KB, want > 0", pct, v)
			}
			// The dip-and-recovery shape: completeness drops below 1.0
			// while holders are dead or transfers partial, but the
			// repairs keep it above the unreplicated pool, which can
			// only wait out every crash.
			if v := cell(row, nodeCompl); v >= 1 {
				t.Errorf("pct %d: node completeness %v, want a dip below 1", pct, v)
			}
			if nc, pc := cell(row, nodeCompl), cell(row, poolCompl); nc <= pc {
				t.Errorf("pct %d: node completeness %v not above unreplicated pool %v — repair bought nothing", pct, nc, pc)
			}
			if v := cell(row, nodeRecall); v < 0.9 {
				t.Errorf("pct %d: node recall %v, want ≥ 0.9 with repair running", pct, v)
			}
		}
	}

	// The attribution columns: six phase shares of the probe latency
	// mass, summing to ~100 because the sweep partitions every span's
	// wall clock (each share rounds to one decimal). Failure-driven
	// phases appear exactly when churn ran — repair interference is the
	// named explanation of the busy-p95 > quiet-p95 gap above.
	const (
		attrXmit   = 27
		attrARQ    = 28
		attrQueue  = 29
		attrRetry  = 30
		attrRepair = 31
		attrOther  = 32
	)
	for row := range res.Table.Rows {
		pct := int(cell(row, 0))
		var sum float64
		for col := attrXmit; col <= attrOther; col++ {
			v := cell(row, col)
			if v < 0 || v > 100 {
				t.Errorf("pct %d: attribution col %d share %v outside [0,100]", pct, col, v)
			}
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("pct %d: attribution shares sum to %v, want ~100", pct, sum)
		}
		if v := cell(row, attrXmit); v <= 0 {
			t.Errorf("pct %d: transmit share %v, want > 0", pct, v)
		}
		if pct == 0 {
			// Nothing failed: no lost-frame stalls, no failover detours,
			// no repair windows.
			for _, col := range []int{attrARQ, attrRetry, attrRepair} {
				if v := cell(row, col); v != 0 {
					t.Errorf("no churn: failure-phase col %d share %v, want 0", col, v)
				}
			}
		} else {
			if v := cell(row, attrRepair); v <= 0 {
				t.Errorf("pct %d: repair-interference share %v, want > 0 under churn", pct, v)
			}
		}
	}

	// Churn must actually hurt the designs without replication: DIM and
	// GHT lose their single copies.
	last := len(res.Table.Rows) - 1
	if v := cell(last, dimRecall); v >= 1 {
		t.Errorf("DIM recall %v at heaviest churn, expected degradation", v)
	}
	if v := cell(last, ghtRecall); v >= 1 {
		t.Errorf("GHT recall %v at heaviest churn, expected degradation", v)
	}
}

// TestChurnKeepsInvariants runs the churn table's replicated arm at the
// quick size — beacons, late crash detection, recoveries, loss bursts and
// background rateless repair — in steps of a quarter virtual second, and
// after every step asks the store for its invariants. Each step leaves
// every copy's memoised set summary warm, so a restore, truncation,
// mirror re-homing or repair insert that forgot to invalidate one fails
// the step after it instead of silently skipping a repair.
func TestChurnKeepsInvariants(t *testing.T) {
	cfg := Quick()
	const pct = 20
	n := cfg.PartialSize
	src := rng.New(cfg.Seed + 9900 + pct)
	env, err := Deploy(n, cfg.Dims, src)
	if err != nil {
		t.Fatal(err)
	}
	env.Sched, env.ownRouters = sim.NewScheduler(), true
	sys, err := env.AddPool("repl", src.Fork("pivots-repl"), nil, pool.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	arm := env.Arms[0]
	rec := antientropy.New(env.Sched, arm.Net, arm.Router, antientropy.Config{Period: cfg.RepairPeriod}, sys)
	disc := discovery.New(arm.Net, env.Sched, src.Fork("beacons"), discovery.Config{Interval: churnBeaconInterval})
	engine := chaos.NewEngine(env.Sched, arm.Net, arm.Router, []chaos.System{sys},
		chaos.WithFailureDetection(disc), chaos.WithRecoveryHook(func(int) { rec.Kick() }))
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		t.Fatal(err)
	}
	plan := chaos.RandomChurn(src.Fork("churn"), n, pct/100.0, 0.25, churnHorizon)
	side := env.Layout.Side
	plan.Burst(churnHorizon/4, geo.RectFromCorners(geo.Pt(0.3*side, 0.3*side), geo.Pt(0.6*side, 0.6*side)), burstLossRate, churnHorizon/5)
	if err := engine.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	disc.Start()
	rec.Start()
	for at := time.Duration(0); at <= churnHorizon; at += 250 * time.Millisecond {
		if err := env.Sched.RunUntil(at, 0); err != nil {
			t.Fatal(err)
		}
		// The store and the pair walk every step; the whole system, whose
		// directory scan is the dear part, every virtual second.
		check := sys.CheckStore
		if at%time.Second == 0 {
			check = sys.CheckInvariants
		}
		for _, err := range []error{check(), pooltest.CheckReplicaPairs(sys)} {
			if err != nil {
				t.Fatalf("at %v: %v", at, err)
			}
		}
	}
	if rec.Sessions() == 0 || rec.Aborted() == 0 || sys.RecoveryMessages() == 0 {
		t.Fatalf("sessions=%d aborted=%d recovery msgs=%d: the run exercised no repair",
			rec.Sessions(), rec.Aborted(), sys.RecoveryMessages())
	}
	for _, err := range append(engine.Errs(), rec.Errs()...) {
		t.Error(err)
	}
}

// TestChurnCompletenessOracle checks the per-query Completeness report
// against ground truth computed from global knowledge: with a set of
// undetected dead nodes (none of them splitters for the chosen sink),
// the unreached cells of a plain Pool are exactly the relevant cells
// whose index node is dead.
func TestChurnCompletenessOracle(t *testing.T) {
	const n = 300
	layout, err := field.Generate(field.DefaultSpec(n), rng.New(9955))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	net := network.New(layout)
	router := gpsr.New(layout)
	s, err := pool.New(net, router, 3, rng.New(9956))
	if err != nil {
		t.Fatal(err)
	}
	// No detection delay scheduling here: the engine only tears down the
	// radio/routing layers because the pool is not registered, modelling
	// the undetected window directly.
	engine := chaos.NewEngine(sched, net, router, nil)

	src := rng.New(9957)
	gen := workload.NewUniformEvents(src.Fork("events"), 3)
	for _, pe := range GenerateEvents(layout, 3, gen) {
		if err := s.Insert(pe.Origin, pe.Event); err != nil {
			t.Fatal(err)
		}
	}

	sink := 0
	full := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	// Splitters must survive so the oracle stays a pure per-cell
	// predicate (a dead splitter reroutes the whole pool's fan-out).
	protected := map[int]bool{sink: true}
	for _, p := range s.Pools() {
		protected[s.SplitterFor(p, sink)] = true
	}
	down := map[int]bool{}
	for len(down) < 6 {
		v := src.Intn(n)
		if protected[v] || down[v] {
			continue
		}
		down[v] = true
		engine.CrashNode(v)
	}

	got, comp, err := s.QueryWithReport(sink, full)
	if err != nil {
		t.Fatal(err)
	}
	oracleUnreached := 0
	for _, cells := range s.RelevantCells(full.Rewrite()) {
		for _, c := range cells {
			if down[s.IndexNode(c)] {
				oracleUnreached++
			}
		}
	}
	if unreached := comp.CellsTotal - comp.CellsReached; unreached != oracleUnreached {
		t.Errorf("report says %d unreached cells, oracle says %d", unreached, oracleUnreached)
	}
	if len(comp.Unreached) != oracleUnreached {
		t.Errorf("unreached list has %d entries, oracle says %d", len(comp.Unreached), oracleUnreached)
	}
	if oracleUnreached == 0 {
		t.Fatal("oracle found no unreached cells; pick different victims")
	}
	if comp.Complete() {
		t.Error("report claims completeness with dead index nodes")
	}
	for _, e := range got {
		if !full.Rewrite().Matches(e) {
			t.Errorf("returned event %v does not match the query", e)
		}
	}
}
