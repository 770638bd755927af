package experiment

import (
	"fmt"

	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/stats"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Latency estimates query response time in radio hops along the critical
// path. Message counts (the paper's metric) hide a structural difference:
// Pool's splitter tree disseminates to all relevant cells in parallel, so
// its response time is the deepest branch — while DIM's zone-to-zone
// forwarding is sequential, so its response time is the whole walk. The
// estimate assumes one hop per time unit and ignores contention.
func Latency(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Query latency in critical-path hops, N=%d", cfg.PartialSize)
	table := texttable.New(title, "Workload", "DIM mean", "DIM p95", "Pool mean", "Pool p95")

	src := rng.New(cfg.Seed + 9990)
	env, p, d, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, err
	}

	qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
	sinkSrc := src.Fork("sinks")
	for _, kind := range queryKinds(qgen)[:2] {
		var dimLat, poolLat []float64
		for i := 0; i < cfg.Queries; i++ {
			q, err := kind.gen()
			if err != nil {
				return nil, err
			}
			sink := sinkSrc.Intn(cfg.PartialSize)
			dl, err := dimLatency(env.Router, d, sink, q)
			if err != nil {
				return nil, err
			}
			pl, err := poolLatency(env.Router, p, sink, q)
			if err != nil {
				return nil, err
			}
			dimLat = append(dimLat, dl)
			poolLat = append(poolLat, pl)
		}
		table.AddRow(kind.name,
			texttable.Float(summary(dimLat).Mean(), 1), texttable.Float(stats.Percentile(dimLat, 95), 1),
			texttable.Float(summary(poolLat).Mean(), 1), texttable.Float(stats.Percentile(poolLat, 95), 1))
	}
	return &Result{ID: "ablation-latency", Title: title, Table: table}, nil
}

// summary folds the values, in order, into a running summary.
func summary(values []float64) *stats.Summary {
	s := new(stats.Summary)
	for _, v := range values {
		s.Add(v)
	}
	return s
}

// queryKind is one row of the latency tables: a named query generator.
type queryKind struct {
	name string
	gen  func() (event.Query, error)
}

// queryKinds lists the workloads the latency tables report, in row order,
// all drawing from qgen.
func queryKinds(qgen *workload.Queries) []queryKind {
	return []queryKind{
		{"exact (exp sizes)", func() (event.Query, error) { return qgen.ExactMatch(workload.ExponentialSizes), nil }},
		{"1-partial", func() (event.Query, error) { return qgen.MPartial(1) }},
		{"2-partial", func() (event.Query, error) { return qgen.MPartial(2) }},
	}
}

// dimLatency walks the relevant zones sequentially (chain dissemination):
// response time = hops to reach the last zone + its reply hops back.
func dimLatency(router *gpsr.Router, d *dim.System, sink int, q event.Query) (float64, error) {
	zones := d.RelevantZones(q)
	if len(zones) == 0 {
		return 0, nil
	}
	cur := sink
	elapsed := 0.0
	worst := 0.0
	for _, z := range zones {
		if z.Owner != cur {
			res, err := router.RouteToNode(cur, z.Owner)
			if err != nil {
				return 0, err
			}
			elapsed += float64(res.Hops())
			cur = z.Owner
		}
		// This zone's answer arrives after the chain reaches it plus its
		// direct reply path; the last one to land bounds the response.
		back, err := router.RouteToNode(z.Owner, sink)
		if err != nil {
			return 0, err
		}
		if t := elapsed + float64(back.Hops()); t > worst {
			worst = t
		}
	}
	return worst, nil
}

// poolLatency takes the deepest branch of the splitter tree: all Pools
// and all cells proceed in parallel.
func poolLatency(router *gpsr.Router, p *pool.System, sink int, q event.Query) (float64, error) {
	var plan pool.Plan
	if err := p.Resolve(q, &plan); err != nil {
		return 0, err
	}
	worst := 0.0
	for _, f := range plan.Fanouts {
		splitter := p.SplitterFor(f.Pool, sink)
		toSplitter, err := router.RouteToNode(sink, splitter)
		if err != nil {
			return 0, err
		}
		back, err := router.RouteToNode(splitter, sink)
		if err != nil {
			return 0, err
		}
		base := float64(toSplitter.Hops() + back.Hops())
		deepest := 0.0
		for _, c := range f.Cells {
			index := p.IndexNode(c)
			if index == splitter {
				continue
			}
			out, err := router.RouteToNode(splitter, index)
			if err != nil {
				return 0, err
			}
			ret, err := router.RouteToNode(index, splitter)
			if err != nil {
				return 0, err
			}
			if d := float64(out.Hops() + ret.Hops()); d > deepest {
				deepest = d
			}
		}
		if t := base + deepest; t > worst {
			worst = t
		}
	}
	return worst, nil
}
