package experiment

import (
	"fmt"
	"strings"

	"pooldcs/internal/load"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// LoadBackends lists the backends DeployLoad builds, in report order.
func LoadBackends() []string { return []string{"pool", "dim", "ght", "pool-actor"} }

// DeployLoad builds what a load run drives on sched: a deployment of n
// sensors whose one arm runs the named backend, with perNode uniform
// events per sensor preloaded so that queries hit a populated store, as
// in §5.1. The preload happens before the load clock starts and is not
// charged to any station. Its forks, in order: layout, preload, pivots.
func DeployLoad(backend string, n, dims, perNode int, src *rng.Source, sched *sim.Scheduler) (load.Target, error) {
	e, err := Deploy(n, dims, src)
	if err != nil {
		return nil, err
	}
	e.Sched = sched
	gen := workload.NewUniformEvents(src.Fork("preload"), dims)
	// Each scheme's station rule names the node an operation queues at.
	var station func(op *load.Op) int
	var unsupported []load.Class
	switch backend {
	case "pool":
		p, err := e.AddPool(backend, src.Fork("pivots"), nil)
		if err != nil {
			return nil, err
		}
		// An insert at its Theorem 3.1 index node, a query at the splitter
		// of its first relevant Pool, the entry of the splitter tree.
		station = func(op *load.Op) int {
			var plan pool.Plan
			if op.Class == load.Insert {
				if _, index, err := p.Place(op.Node, op.Event); err == nil {
					return index
				}
			} else if p.Resolve(op.Query, &plan) == nil && len(plan.Fanouts) > 0 {
				return p.SplitterFor(plan.Fanouts[0].Pool, op.Node)
			}
			return op.Node
		}
	case "dim":
		d, err := e.AddDIM(backend, nil)
		if err != nil {
			return nil, err
		}
		// An insert at its zone's owner, a query at its first relevant
		// zone's. Under a skewed population these are the hot owners —
		// DIM's hotspot — so DIM saturates before Pool at equal load.
		station = func(op *load.Op) int {
			if op.Class == load.Insert {
				return d.ZoneOf(op.Event.Values).Owner
			}
			if zs := d.RelevantZones(op.Query); len(zs) > 0 {
				return zs[0].Owner
			}
			return op.Node
		}
	case "ght":
		// The home node of the hashed values. GHT hashes whole events to
		// a point, so it serves inserts and point queries only.
		g := e.AddGHT(backend, nil)
		unsupported = []load.Class{load.RangeQuery}
		station = func(op *load.Op) int {
			values := op.Event.Values
			if op.Class != load.Insert {
				values = make([]float64, len(op.Query.Ranges))
				for i, r := range op.Query.Ranges {
					values[i] = r.L
				}
			}
			return e.Layout.Nearest(g.HashPoint(values))
		}
	case "pool-actor":
		eng, err := e.AddActor(backend, src.Fork("pivots"), nil)
		if err != nil {
			return nil, err
		}
		// Radio inserts, drained once before the load clock starts: the
		// engine's runs are start-relative, so the elapsed preload time
		// does not shift the offered horizon.
		for _, pe := range GenerateEvents(e.Layout, perNode, gen) {
			if err := eng.Insert(pe.Origin, pe.Event, nil); err != nil {
				return nil, fmt.Errorf("experiment: preload: %w", err)
			}
		}
		sched.Run()
		return load.NewActorTarget(eng), nil
	default:
		return nil, fmt.Errorf("experiment: unknown backend %q (choose from %s)", backend, strings.Join(LoadBackends(), ", "))
	}
	if _, err := e.Populate(perNode, gen); err != nil {
		return nil, err
	}
	return load.NewStationTarget(e.Arms[0].Sys, e.Arms[0].Net, sched, station, unsupported...), nil
}
