package experiment

import (
	"fmt"

	"pooldcs/internal/event"
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
	env, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
	if err := env.InsertAll(events); err != nil {
		return nil, err
	}

	qgen := workload.NewQueries(src.Fork("queries"), cfg.Dims)
	sinkSrc := src.Fork("sinks")
	kinds := []struct {
		name string
		gen  func() (event.Query, error)
	}{
		{"exact (exp sizes)", func() (event.Query, error) { return qgen.ExactMatch(workload.ExponentialSizes), nil }},
		{"1-partial", func() (event.Query, error) { return qgen.MPartial(1) }},
	}
	for _, kind := range kinds {
		var dimLat, poolLat []float64
		for i := 0; i < cfg.Queries; i++ {
			q, err := kind.gen()
			if err != nil {
				return nil, err
			}
			sink := sinkSrc.Intn(cfg.PartialSize)
			dl, err := dimLatency(env, sink, q)
			if err != nil {
				return nil, err
			}
			pl, err := poolLatency(env, sink, q)
			if err != nil {
				return nil, err
			}
			dimLat = append(dimLat, dl)
			poolLat = append(poolLat, pl)
		}
		table.AddRow(kind.name,
			texttable.Float(mean(dimLat), 1), texttable.Float(stats.Percentile(dimLat, 95), 1),
			texttable.Float(mean(poolLat), 1), texttable.Float(stats.Percentile(poolLat, 95), 1))
	}
	return &Result{ID: "ablation-latency", Title: title, Table: table}, nil
}

func mean(v []float64) float64 {
	var s stats.Summary
	for _, x := range v {
		s.Add(x)
	}
	return s.Mean()
}

// dimLatency walks the relevant zones sequentially (chain dissemination):
// response time = hops to reach the last zone + its reply hops back.
func dimLatency(env *Env, sink int, q event.Query) (float64, error) {
	zones := env.DIM.RelevantZones(q)
	if len(zones) == 0 {
		return 0, nil
	}
	cur := sink
	elapsed := 0.0
	worst := 0.0
	for _, z := range zones {
		if z.Owner != cur {
			res, err := env.Router.RouteToNode(cur, z.Owner)
			if err != nil {
				return 0, err
			}
			elapsed += float64(res.Hops())
			cur = z.Owner
		}
		// This zone's answer arrives after the chain reaches it plus its
		// direct reply path; the last one to land bounds the response.
		back, err := env.Router.RouteToNode(z.Owner, sink)
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
func poolLatency(env *Env, sink int, q event.Query) (float64, error) {
	var plan pool.Plan
	if err := env.Pool.Resolve(q, &plan); err != nil {
		return 0, err
	}
	worst := 0.0
	for _, f := range plan.Fanouts {
		splitter := env.Pool.SplitterFor(f.Pool, sink)
		toSplitter, err := env.Router.RouteToNode(sink, splitter)
		if err != nil {
			return 0, err
		}
		back, err := env.Router.RouteToNode(splitter, sink)
		if err != nil {
			return 0, err
		}
		base := float64(toSplitter.Hops() + back.Hops())
		deepest := 0.0
		for _, c := range f.Cells {
			index := env.Pool.IndexNode(c)
			if index == splitter {
				continue
			}
			out, err := env.Router.RouteToNode(splitter, index)
			if err != nil {
				return 0, err
			}
			ret, err := env.Router.RouteToNode(index, splitter)
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
