package experiment

import (
	"fmt"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/attrib"
	"pooldcs/internal/chaos"
	"pooldcs/internal/dcs"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/geo"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

// churnHorizon is the virtual time one churn row simulates.
const churnHorizon = 60 * time.Second

// burstLossRate is the per-frame drop probability inside a loss-burst
// window of the churn plan. Kept below the level where a single
// multi-hop unicast is more likely than not to lose a frame, so the
// one-retry ARQ policy still carries mirrored queries over the bar.
const burstLossRate = 0.3

// churnBeaconInterval is the discovery beacon period driving failure
// detection. A crash stays undetected until its neighbours miss enough
// beacons (discovery.Config.Timeout, ≈3.75 s at the defaults), so the
// detection window is an emergent property of the beacon exchange —
// measured into the Detect columns — instead of a configured constant.
const churnBeaconInterval = time.Second

// churnServiceTime is the per-packet processing time of the actor
// universe's nodes: with a real service model, message-driven repair
// transfers occupy the same radios and queues live queries contend for,
// so repair traffic measurably stretches query latency.
const churnServiceTime = 2 * time.Millisecond

// churnProbePeriod is the cadence of the actor universe's probe query
// stream. Repair epochs are narrow — a few seconds of undetected crash
// plus ~100 ms of election and transfer — so the interference columns
// need a probe stream dense enough to land queries inside them.
const churnProbePeriod = 250 * time.Millisecond

// churnUniverse is one arm under churn — its own radio and router, so
// per-system traffic and fault detection stay separable — with the beacon
// protocol and chaos engine driving it and the per-query accumulators.
type churnUniverse struct {
	*Arm
	disc   *discovery.Protocol
	engine *chaos.Engine

	// kick, when set, is invoked by the chaos engine's recovery hook so a
	// rejoining node triggers an immediate anti-entropy round.
	kick func()

	sumRecall float64
	sumComp   float64
	msgs      uint64
}

// Churn measures how the four designs — Pool, Pool with cell mirroring,
// DIM, and the GHT baseline — degrade under growing node churn. A
// deterministic fault plan crashes a fraction of the deployment spread
// over the horizon (a quarter of the victims later reboot, empty); each
// universe runs the discovery beacon protocol, and the chaos engine
// tears a crash down only when the victim's neighbours miss enough
// beacons, so queries landing inside the emergent detection window must
// degrade gracefully against an undetected corpse. Pool and DIM answer
// the range-query workload; GHT — which supports only exact-match
// lookups — answers a parallel stream of point queries for stored
// events. Reported per churn rate: mean recall against the ground-truth
// oracle (every event ever stored), mean completeness (cells served /
// cells addressed), query+reply messages per query, and the measured
// detection-latency distribution (p50/p95 across all universes).
//
// The replicated universe additionally runs background rateless
// anti-entropy between every cell's primary and mirror, and a fifth
// unqueried universe — the same replicated pool — runs the naive
// full-snapshot reconciler as its cost baseline. The trailing columns
// compare them: coded symbols and repair KB of the rateless sessions
// (growing with how much actually diverged), snapshot KB (growing with
// store size however little differs), and the p95 divergence window a
// repairing session closed.
//
// A sixth universe runs the actor engine with message-driven repair:
// crashes detected over its beacons launch real multi-hop re-election
// and mirror-transfer exchanges that share radios and service queues
// with the live query stream. Its columns measure the interference:
// mean recall and completeness (dipping while transfers are partial,
// recovering as they converge), query p95 split by whether the query
// was issued inside a repair epoch — from a holder's crash until its
// re-election and restore transfers converge — the repair-latency
// distribution itself, and the control-plane traffic repairs cost.
func Churn(cfg Config, churnPcts []int) (*Result, error) {
	title := fmt.Sprintf("Query degradation under churn, N=%d (recall vs oracle / completeness / msgs per query)", cfg.PartialSize)
	table := texttable.New(title, "Churn%",
		"Pool recall", "Pool compl", "Pool msgs",
		"Repl recall", "Repl compl", "Repl msgs",
		"DIM recall", "DIM compl", "DIM msgs",
		"GHT recall", "GHT compl", "GHT msgs",
		"Detect p50 ms", "Detect p95 ms", "Drops",
		"AE syms", "AE KB", "Snap KB", "Conv p95 ms",
		"Node recall", "Node compl", "Quiet p95 ms", "Busy p95 ms",
		"Rep p50 ms", "Rep p95 ms", "Rep ctrl KB",
		"Xmit %", "ARQ %", "Queue %", "Retry %", "Repair %", "Other %")

	// Each churn rate is a self-contained simulation — its own scheduler,
	// layout, and six universes — so the rates fan out across workers.
	return sweep(cfg, "ablation-churn", table, len(churnPcts), func(pcti int) ([]string, error) {
		pct := churnPcts[pcti]
		n := cfg.PartialSize
		src := rng.New(cfg.Seed + 9900 + int64(pct))
		env, err := Deploy(n, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		env.Sched, env.ownRouters, env.metered = sim.NewScheduler(), true, true
		sched := env.Sched

		// attach puts the arm just added under churn: beacons drawn from
		// bsrc detect its crashes, its chaos engine tears the arm's system
		// down when they do, and the arm's registry collects both.
		attach := func(bsrc *rng.Source) *churnUniverse {
			u := &churnUniverse{Arm: env.Arms[len(env.Arms)-1]}
			u.disc = discovery.New(u.Net, sched, bsrc.Fork("beacons-"+u.Name),
				discovery.Config{Interval: churnBeaconInterval})
			u.disc.EnableMetrics(u.Reg)
			u.engine = chaos.NewEngine(sched, u.Net, u.Router, []chaos.System{u.Sys},
				chaos.WithFailureDetection(u.disc), chaos.WithMetrics(u.Reg),
				chaos.WithRecoveryHook(func(int) {
					if u.kick != nil {
						u.kick()
					}
				}))
			return u
		}
		if _, err := env.AddPool("plain", src.Fork("pivots-plain"), nil); err != nil {
			return nil, err
		}
		plain := attach(src)
		replSys, err := env.AddPool("repl", src.Fork("pivots-repl"), nil, pool.WithReplication())
		if err != nil {
			return nil, err
		}
		repl := attach(src)
		if _, err := env.AddDIM("dim", nil); err != nil {
			return nil, err
		}
		dimU := attach(src)
		env.AddGHT("ght", nil)
		ghtU := attach(src)
		// The snapshot-baseline universe draws from its own root source so
		// the four established universes reproduce their exact pre-existing
		// streams (Fork consumes from the parent sequence).
		snapSrc := rng.New(cfg.Seed + 99_000 + int64(pct))
		snapSys, err := env.AddPool("snap", snapSrc.Fork("pivots-snap"), nil, pool.WithReplication())
		if err != nil {
			return nil, err
		}
		snap := attach(snapSrc)
		// The actor universe likewise draws from its own root source.
		// Message-driven repair plus a per-packet service time: restore
		// transfers queue behind (and ahead of) live query traffic.
		nodeSrc := rng.New(cfg.Seed + 995_000 + int64(pct))
		nodeEng, err := env.AddActor("node", nodeSrc.Fork("pivots-node"), nil, node.WithReplication())
		if err != nil {
			return nil, err
		}
		nodeEng.EnableService(churnServiceTime)
		nodeU := attach(nodeSrc)
		// Flight recorder: a bounded event ring over the actor universe's
		// spans and hop records. The attribution columns decompose the
		// probe latencies recorded here; the ring caps trace memory no
		// matter the horizon.
		flight := trace.NewRing(sched, cfg.traceRing())
		nodeEng.SetTracer(flight)
		universes := []*churnUniverse{plain, repl, dimU, ghtU}
		all6 := []*churnUniverse{plain, repl, dimU, ghtU, snap, nodeU}

		// Background anti-entropy: rateless sessions repair the queried
		// replicated universe; the unqueried snapshot universe pays the
		// naive full-transfer cost for the same fault plan.
		recAE := antientropy.New(sched, repl.Net, repl.Router,
			antientropy.Config{Period: cfg.RepairPeriod}, replSys)
		recAE.EnableMetrics(repl.Reg)
		repl.kick = recAE.Kick
		recSnap := antientropy.New(sched, snap.Net, snap.Router,
			antientropy.Config{Period: cfg.RepairPeriod, Snapshot: true}, snapSys)
		recSnap.EnableMetrics(snap.Reg)
		snap.kick = recSnap.Kick

		// Load every universe identically; the actor arm preloads.
		placed, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err != nil {
			return nil, err
		}
		// The oracles scan every stored event once per probe, with the
		// stores' kernel.
		var all event.Rows
		for _, pe := range placed {
			all.Append(pe.Event)
		}

		// The same fault plan hits every universe. Loss bursts ride on the
		// crash plan in proportion to the churn rate — every 5 points of
		// churn open one regional window eating burstLossRate of the frames
		// that cross it. A frame's drop draw is keyed to its link and its
		// ordinal on that link (iteration-order stable), so identical plans
		// produce identical drop patterns in every universe no matter how
		// their traffic interleaves with the beacons. The bursts fork is
		// drawn last to leave the older streams untouched.
		plan := chaos.RandomChurn(src.Fork("churn"), n, float64(pct)/100, 0.25, churnHorizon)

		// Queries fire at random times across the horizon, interleaved
		// with the faults. Pool and DIM resolve the range query; GHT, the
		// point query of a stored event drawn for the same instant.
		qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
		qsrc := src.Fork("query-times")
		gsrc := src.Fork("ght-picks")

		bsrc := src.Fork("bursts")
		for b := 0; b < pct/5; b++ {
			at := time.Duration(bsrc.Float64() * 0.8 * float64(churnHorizon))
			cx, cy := bsrc.Uniform(0, env.Layout.Side), bsrc.Uniform(0, env.Layout.Side)
			r := env.Layout.Side * 0.1
			plan.Burst(at, geo.RectFromCorners(geo.Pt(cx-r, cy-r), geo.Pt(cx+r, cy+r)), burstLossRate, churnHorizon/10)
		}
		for _, u := range all6 {
			if err := u.engine.Schedule(plan); err != nil {
				return nil, err
			}
		}
		var queryErr error
		// Actor-universe probe latency, split by whether the probe
		// addressed a cell mid-repair when issued; results land via
		// callback whenever the distributed exchange finishes.
		quietQ := stats.NewIntHistogram()
		busyQ := stats.NewIntHistogram()
		nodeDone := 0
		for qi := 0; qi < cfg.Queries; qi++ {
			at := time.Duration(qsrc.Float64() * float64(churnHorizon))
			sink := qsrc.Intn(n)
			q := qgen.ExactMatch(workload.UniformSizes)
			pq := pointQueryFor(all.At(gsrc.Intn(all.Len())))
			if err := sched.At(at, func() {
				// The scheduled sink may have died by now: a real user
				// would issue from a live gateway.
				for plain.engine.Down(sink) {
					sink = (sink + 1) % n
				}
				oracle := all.AppendMatches(nil, q.Rewrite())
				for _, u := range universes {
					uq, uOracle := q, oracle
					if u == ghtU {
						uq = pq
						uOracle = all.AppendMatches(nil, pq.Rewrite())
					}
					before := u.queryFrames()
					got, comp, err := u.Sys.QueryWithReport(sink, uq)
					if err != nil && queryErr == nil {
						queryErr = fmt.Errorf("churn %d%% query at %v: %w", pct, at, err)
						return
					}
					u.msgs += u.queryFrames() - before
					u.sumRecall += RecallOf(got, uOracle)
					u.sumComp += comp.Fraction()
				}
			}); err != nil {
				return nil, err
			}
		}
		// The actor universe answers its own denser probe stream — one
		// query per churnProbePeriod, same workload generator — because
		// the repair epochs it must sample are narrow: a probe only
		// measures interference when one of its own relevant cells is
		// mid-repair, and the sparse shared stream all but never lands
		// one there. Each probe runs through the real message-driven
		// fan-out; the callback fires when the last reply (or its
		// declared failure) lands, so the elapsed time includes every
		// ARQ timeout and queueing delay repair traffic inflicted.
		pgen := workload.NewQueries(nodeSrc.Fork("probe-queries"), cfg.Dims)
		psrc := nodeSrc.Fork("probe-sinks")
		nProbes := int(churnHorizon / churnProbePeriod)
		for pi := 0; pi < nProbes; pi++ {
			at := time.Duration(pi)*churnProbePeriod + churnProbePeriod/2
			sink := psrc.Intn(n)
			q := pgen.ExactMatch(workload.UniformSizes)
			if err := sched.At(at, func() {
				for nodeU.engine.Down(sink) {
					sink = (sink + 1) % n
				}
				oracle := all.AppendMatches(nil, q.Rewrite())
				// A probe counts as degraded when one of its own relevant
				// cells is inside a repair epoch — from the (possibly
				// still undetected) crash of its holder until re-election
				// and restore transfers converge — because those are the
				// queries whose exchanges pay the failure detection, the
				// mirror fallback, and the transfer contention.
				degraded := nodeEng.QueryDegraded(q, nodeU.engine.Down)
				err := nodeEng.QueryWithReport(sink, q, func(got []event.Event, comp dcs.Completeness, elapsed time.Duration) {
					nodeU.sumRecall += RecallOf(got, oracle)
					nodeU.sumComp += comp.Fraction()
					nodeDone++
					if degraded {
						busyQ.Add(elapsed.Milliseconds())
					} else {
						quietQ.Add(elapsed.Milliseconds())
					}
				})
				if err != nil && queryErr == nil {
					queryErr = fmt.Errorf("churn %d%% probe at %v: %w", pct, at, err)
				}
			}); err != nil {
				return nil, err
			}
		}
		// Beacons and reconcilers reschedule themselves forever; end every
		// protocol at the horizon so the event queue drains.
		for _, u := range all6 {
			u.disc.Start()
		}
		recAE.Start()
		recSnap.Start()
		if err := sched.At(churnHorizon, func() {
			for _, u := range all6 {
				u.disc.Stop()
			}
			recAE.Stop()
			recSnap.Stop()
		}); err != nil {
			return nil, err
		}
		sched.Run()
		if queryErr != nil {
			return nil, queryErr
		}
		if nodeDone != nProbes {
			return nil, fmt.Errorf("churn %d%%: %d of %d actor probes never completed", pct, nProbes-nodeDone, nProbes)
		}
		for _, err := range nodeEng.Errors() {
			return nil, fmt.Errorf("churn %d%% actor engine: %w", pct, err)
		}
		// Detection latency merges only the queried universes, so the
		// Detect columns describe the systems the table compares.
		detect := stats.NewIntHistogram()
		for _, u := range all6 {
			for _, err := range u.engine.Errs() {
				return nil, fmt.Errorf("churn %d%%: %w", pct, err)
			}
		}
		for _, u := range universes {
			detect.Merge(u.engine.DetectionLatency())
		}
		for _, err := range recAE.Errs() {
			return nil, fmt.Errorf("churn %d%% rateless repair: %w", pct, err)
		}
		for _, err := range recSnap.Errs() {
			return nil, fmt.Errorf("churn %d%% snapshot repair: %w", pct, err)
		}

		nq := float64(cfg.Queries)
		row := []string{texttable.Int(pct)}
		for _, u := range universes {
			row = append(row,
				texttable.Float(u.sumRecall/nq, 3),
				texttable.Float(u.sumComp/nq, 3),
				texttable.Float(float64(u.msgs)/nq, 1))
		}
		// Frames lost on the air across all four universes — burst losses
		// plus frames sent into undetected corpses — read back through the
		// per-universe registries (the same net_dropped_frames_total family
		// the exposition endpoint serves).
		var drops float64
		for _, u := range universes {
			drops += u.Reg.Value("net_dropped_frames_total")
		}
		row = append(row,
			texttable.Int(int(detect.Quantile(50))),
			texttable.Int(int(detect.Quantile(95))),
			texttable.Int(int(drops)))
		// The repair comparison: rateless cost tracks divergence, the
		// snapshot baseline re-ships whole stores every round.
		row = append(row,
			texttable.Int(int(recAE.Symbols())),
			texttable.Float(float64(recAE.Bytes())/1024, 1),
			texttable.Float(float64(recSnap.Bytes())/1024, 1),
			texttable.Int(int(recAE.Convergence().Quantile(95))))
		// The actor universe: accuracy under asynchronous repair, query
		// latency with and without a repair in flight, the repair
		// latencies themselves, and the control traffic repairs cost.
		rep := nodeEng.RepairLatency()
		_, repBytes := nodeEng.RepairTraffic()
		row = append(row,
			texttable.Float(nodeU.sumRecall/float64(nProbes), 3),
			texttable.Float(nodeU.sumComp/float64(nProbes), 3),
			texttable.Int(int(quietQ.Quantile(95))),
			texttable.Int(int(busyQ.Quantile(95))),
			texttable.Int(int(rep.Quantile(50))),
			texttable.Int(int(rep.Quantile(95))),
			texttable.Float(float64(repBytes)/1024, 1))
		// Latency attribution over the flight recorder: decompose every
		// probe span surviving in the ring into phases and report each
		// phase's share of the total latency mass. The shares sum to 100
		// by construction (the sweep partitions each span's wall clock),
		// and the repair share is nonzero exactly when crashes opened
		// repair windows for probe stalls to land in — the named
		// explanation of the busy/quiet p95 gap.
		row = append(row, attributionShares(flight)...)
		return row, nil
	})
}

// attributionShares renders each phase's share (percent) of the total
// latency mass of the query spans surviving in the flight recorder:
// transmit, ARQ stall, queueing (wait plus service), retry detours,
// repair interference, and the remainder (merge plus unexplained). The
// six columns sum to 100 because the sweep partitions each span's wall
// clock; all zeros when eviction left no spans.
func attributionShares(tr *trace.Tracer) []string {
	_, bds := attrib.Analyze(tr, attrib.Options{})
	var mass [attrib.NumPhases]time.Duration
	var total time.Duration
	for _, bd := range bds {
		for p, d := range bd.Phases {
			mass[p] += d
		}
		total += bd.Total
	}
	pct := func(ps ...attrib.Phase) string {
		if total == 0 {
			return texttable.Float(0, 1)
		}
		var s time.Duration
		for _, p := range ps {
			s += mass[p]
		}
		return texttable.Float(float64(s)/float64(total)*100, 1)
	}
	return []string{
		pct(attrib.PhaseTransmit),
		pct(attrib.PhaseARQ),
		pct(attrib.PhaseQueue, attrib.PhaseService),
		pct(attrib.PhaseRetry),
		pct(attrib.PhaseRepair),
		pct(attrib.PhaseMerge, attrib.PhaseOther),
	}
}

// RecallOf returns |got ∩ oracle| / |oracle|, 1.0 when the oracle is
// empty (nothing to miss).
func RecallOf(got, oracle []event.Event) float64 {
	if len(oracle) == 0 {
		return 1
	}
	want := make(map[uint64]bool, len(oracle))
	for _, e := range oracle {
		want[e.Seq] = true
	}
	hit := 0
	for _, e := range got {
		if want[e.Seq] {
			hit++
		}
	}
	return float64(hit) / float64(len(oracle))
}
