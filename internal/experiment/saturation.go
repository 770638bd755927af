package experiment

import (
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/load"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/texttable"
	"pooldcs/internal/trace"
)

// Saturation parameters: a deployment small enough that the sweep is
// cheap, driven long enough that queueing reaches steady state at every
// rate. The knee's position scales with deployment capacity, not with
// these constants, so the qualitative shape is what the table locks in.
const (
	saturationNodes    = 120
	saturationDuration = 4 * time.Second
)

// Saturation sweeps open-loop offered load over the pool and DIM
// backends, with admission control off (admit-all) and on (queue-depth
// shedding), and reports the throughput-vs-latency curve: delivered
// throughput, shed percentage, query p50/p99, and SLO compliance at each
// point. This is the service-level view the per-query message tables
// cannot show — past the knee the admit-all p99 grows without bound
// while shedding trades explicit rejections for a bounded tail.
//
// Each (backend, policy, rate) point is an independent seeded trial, so
// the sweep parallelizes like every other table and the output is
// byte-identical at any worker count.
func Saturation(cfg Config, rates []float64) (*Result, error) {
	backends := []string{"pool", "dim"}
	policies := []load.Policy{load.AdmitAll, load.ShedOnDepth}

	type point struct {
		backend string
		policy  load.Policy
		rate    float64
	}
	var points []point
	for _, b := range backends {
		for _, p := range policies {
			for _, r := range rates {
				points = append(points, point{b, p, r})
			}
		}
	}

	tbl := texttable.New("Saturation: offered load vs delivered throughput and tail latency (open loop)",
		"system", "admission", "offered/s", "served/s", "shed%", "p50ms", "p99ms", "slo%", "maxdepth",
		"queue%", "svc%")
	return sweep(cfg, "saturation", tbl, len(points), func(i int) ([]string, error) {
		pt := points[i]
		sched := sim.NewScheduler()
		// Same seed at every point: each trial sees the same deployment and
		// arrival randomness, so rate and policy are the only variables.
		target, err := DeployLoad(pt.backend, saturationNodes, cfg.Dims, cfg.EventsPerNode, rng.New(cfg.Seed), sched)
		if err != nil {
			return nil, err
		}
		eng, err := load.NewEngine(sched, target, saturationNodes, load.Config{
			Seed:      cfg.Seed,
			Rate:      pt.rate,
			Duration:  saturationDuration,
			Dims:      cfg.Dims,
			Admission: load.AdmissionConfig{Policy: pt.policy},
		})
		if err != nil {
			return nil, err
		}
		// Flight recorder + autopsy: every served query's latency splits
		// into queueing and service, the decomposition the trailing
		// columns report.
		flight := trace.NewRing(sched, cfg.traceRing())
		eng.EnableAutopsy(flight)
		rep, err := eng.Run()
		if err != nil {
			return nil, err
		}
		q := rep.QueryLatency()
		qPct, svcPct := queueServiceShares(flight)
		return []string{
			pt.backend,
			pt.policy.String(),
			texttable.Float(pt.rate, 0),
			texttable.Float(rep.ServedPerSec(), 1),
			texttable.Float(rep.ShedPct(), 1),
			texttable.Int(int(q.Quantile(50))),
			texttable.Int(int(q.Quantile(99))),
			texttable.Float(rep.SLOPct(), 0),
			texttable.Int(rep.MaxDepth),
			texttable.Float(qPct, 1),
			texttable.Float(svcPct, 1),
		}, nil
	})
}

// queueServiceShares attributes the query spans in the flight recorder
// and returns queueing's and service's percentage shares of the total
// latency mass. In the station model these two phases partition each
// query's wall clock, so the pair sums to ~100 and the queue share
// rising toward 100 is the knee forming.
func queueServiceShares(tr *trace.Tracer) (queuePct, svcPct float64) {
	_, bds := attrib.Analyze(tr, attrib.Options{})
	var queue, svc, total time.Duration
	for _, bd := range bds {
		queue += bd.Phases[attrib.PhaseQueue]
		svc += bd.Phases[attrib.PhaseService]
		total += bd.Total
	}
	if total == 0 {
		return 0, 0
	}
	return float64(queue) / float64(total) * 100, float64(svc) / float64(total) * 100
}
