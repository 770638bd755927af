package experiment

import (
	"fmt"
	"slices"

	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// InsertCost regenerates the §5.2 data-insertion comparison the paper
// summarizes in prose: the per-event insertion cost of Pool and DIM is
// conceptually the same since both route events over GPSR.
func InsertCost(cfg Config) (*Result, error) {
	title := "Insertion cost (avg messages/event)"
	table := texttable.New(title, "NetworkSize", "DIM", "Pool")

	return sweep(cfg, "ablation-insert", table, len(cfg.NetworkSizes), func(i int) ([]string, error) {
		n := cfg.NetworkSizes[i]
		src := rng.New(cfg.Seed + int64(n) + 9000)
		env, _, _, err := NewEnv(n, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		events, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err != nil {
			return nil, err
		}
		return []string{texttable.Int(n),
			texttable.Float(env.Arms[1].InsertCost(events), 1),
			texttable.Float(env.Arms[0].InsertCost(events), 1)}, nil
	})
}

// Hotspot regenerates the skew claim (§1, §4.2): under a skewed event
// distribution, DIM concentrates storage while Pool spreads it, and Pool's
// workload sharing bounds the peak per-node storage further.
func Hotspot(cfg Config, quota int) (*Result, error) {
	title := fmt.Sprintf("Hotspot under skewed events, N=%d (per-node stored events)", cfg.PartialSize)
	table := texttable.New(title, "System", "MaxLoad", "P99Load", "NodesUsed", "ExtraMsgs")

	src := rng.New(cfg.Seed + 9100)
	env, p, d, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	// A third arm: Pool with workload sharing.
	shared, err := env.AddPool(fmt.Sprintf("Pool+sharing(q=%d)", quota), src.Fork("pivots-shared"), nil,
		pool.WithWorkloadSharing(quota))
	if err != nil {
		return nil, err
	}
	gen := workload.NewHotspotEvents(src.Fork("events"), hotspotCenter(cfg.Dims), 0.02)
	if _, err := env.Populate(cfg.EventsPerNode, gen); err != nil {
		return nil, err
	}

	addRow := func(name string, loads []int, extra uint64) {
		maxLoad, p99, used := loadStats(loads)
		table.AddRow(name, texttable.Int(maxLoad), texttable.Int(p99), texttable.Int(used), texttable.Int(int(extra)))
	}
	addRow("DIM", d.StorageLoad(), 0)
	addRow("Pool", p.StorageLoad(), 0)
	addRow(env.Arms[2].Name, shared.StorageLoad(), env.Arms[2].Net.Messages(network.KindControl))
	return &Result{ID: "ablation-hotspot", Title: title, Table: table}, nil
}

// hotspotCenter places the skew centre in the value region of one Pool so
// that the hotspot hits a single cell hard.
func hotspotCenter(dims int) []float64 {
	c := make([]float64, dims)
	for i := range c {
		c[i] = 0.2
	}
	c[0] = 0.8
	return c
}

// loadStats summarizes a per-node load vector: the maximum, the 99th
// percentile, and the number of nodes holding anything.
func loadStats(loads []int) (maxLoad, p99, used int) {
	var nonZero []int
	for _, l := range loads {
		if l > 0 {
			nonZero = append(nonZero, l)
		}
	}
	if len(nonZero) == 0 {
		return 0, 0, 0
	}
	slices.Sort(nonZero)
	return nonZero[len(nonZero)-1], nonZero[(len(nonZero)*99)/100], len(nonZero)
}

// PoolSize sweeps the Pool side length l at a fixed network size: the
// paper's scalability argument (§1) is that the number of index nodes —
// and hence the per-query cost — tracks the Pool configuration (the
// workload), not the network size.
func PoolSize(cfg Config, sides []int) (*Result, error) {
	title := fmt.Sprintf("Pool side-length ablation, N=%d", cfg.PartialSize)
	table := texttable.New(title, "PoolSide", "IndexNodes", "Pool msgs/query")

	return sweep(cfg, "ablation-poolsize", table, len(sides), func(i int) ([]string, error) {
		side := sides[i]
		src := rng.New(cfg.Seed + 9200 + int64(side))
		env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		p, err := env.AddPool("Pool", src.Fork("pivots"), nil, pool.WithPoolSide(side))
		if err != nil {
			return nil, err
		}
		if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
			return nil, err
		}
		population := exactMatches(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
		costs, err := env.cost(cfg.parallel(), env.Place(src.Fork("sinks"), population))
		if err != nil {
			return nil, err
		}

		indexNodes := make(map[int]bool)
		for _, pl := range p.Pools() {
			for _, c := range pl.Cells() {
				indexNodes[p.IndexNode(c)] = true
			}
		}
		return []string{texttable.Int(side), texttable.Int(len(indexNodes)), texttable.Float(costs[0].PerQuery(), 1)}, nil
	})
}

// PointQuery compares exact-match point query cost across GHT, DIM and
// Pool — the §1 context: GHT handles only this query class, which is why
// multi-dimensional schemes exist at all.
func PointQuery(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Exact-match point query cost, N=%d (avg messages/query)", cfg.PartialSize)
	table := texttable.New(title, "System", "Insert msgs/event", "Query msgs/query")

	src := rng.New(cfg.Seed + 9300)
	env, _, _, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
	if err != nil {
		return nil, err
	}
	env.AddGHT("GHT", nil)
	events, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
	if err != nil {
		return nil, err
	}

	// Point queries target known stored events, so every system returns
	// exactly one match.
	sinkSrc := src.Fork("sinks")
	pickSrc := src.Fork("picks")
	population := make([]event.Query, cfg.Queries)
	for i := range population {
		population[i] = pointQueryFor(events[pickSrc.Intn(len(events))].Event)
	}
	costs, err := env.cost(cfg.parallel(), env.Place(sinkSrc, population))
	if err != nil {
		return nil, err
	}
	for _, ai := range []int{2, 1, 0} { // GHT, DIM, Pool
		a := env.Arms[ai]
		table.AddRow(a.Name, texttable.Float(a.InsertCost(events), 1), texttable.Float(costs[ai].PerQuery(), 1))
	}
	return &Result{ID: "ext-pointquery", Title: title, Table: table}, nil
}

// pointQueryFor builds the exact-match query addressing one event's key.
func pointQueryFor(e event.Event) event.Query {
	rs := make([]event.Range, len(e.Values))
	for i, v := range e.Values {
		rs[i] = event.PointRange(v)
	}
	return event.NewQuery(rs...)
}

// poolOnly deploys a single Pool arm over net options and populates it
// with uniform events: the deployment of the aggregation tables, which
// compare operations on one system rather than systems.
func poolOnly(cfg Config, src, layoutSrc *rng.Source, net ...network.Option) (*Env, *pool.System, error) {
	env, err := Deploy(cfg.PartialSize, cfg.Dims, layoutSrc)
	if err != nil {
		return nil, nil, err
	}
	p, err := env.AddPool("Pool", src.Fork("pivots"), net)
	if err != nil {
		return nil, nil, err
	}
	if _, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims)); err != nil {
		return nil, nil, err
	}
	return env, p, nil
}

// Aggregates demonstrates §3.2.3's in-network aggregation: reply bytes of
// a full query versus COUNT/SUM/AVG aggregates over the same predicate.
func Aggregates(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Splitter aggregation, N=%d (reply traffic per query)", cfg.PartialSize)
	table := texttable.New(title, "Operation", "Messages", "ReplyBytes", "Value")

	src := rng.New(cfg.Seed + 9400)
	env, p, err := poolOnly(cfg, src, src)
	if err != nil {
		return nil, err
	}
	q := fullSpan(cfg.Dims)
	sink := src.Fork("sinks").Intn(cfg.PartialSize)

	var results []event.Event
	frames, replyBytes, err := env.Arms[0].measure(func() (err error) {
		results, err = p.Query(sink, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("SELECT *", texttable.Int(int(frames)), texttable.Int(int(replyBytes)),
		fmt.Sprintf("%d events", len(results)))

	for _, op := range []pool.AggOp{pool.AggCount, pool.AggSum, pool.AggAvg} {
		var v float64
		frames, replyBytes, err := env.Arms[0].measure(func() (err error) {
			v, err = p.Aggregate(sink, q, op, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		table.AddRow(op.String()+"(attr1)", texttable.Int(int(frames)), texttable.Int(int(replyBytes)),
			texttable.Float(v, 2))
	}
	return &Result{ID: "ext-aggregate", Title: title, Table: table}, nil
}
