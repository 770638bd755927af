package experiment

import (
	"fmt"
	"strings"

	"pooldcs/internal/load"
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
	var b load.SystemBackend
	switch backend {
	case "pool":
		p, err := e.AddPool(backend, src.Fork("pivots"), nil)
		if err != nil {
			return nil, err
		}
		b = &load.PoolBackend{Sys: p, Net: e.Arms[0].Net}
	case "dim":
		d, err := e.AddDIM(backend, nil)
		if err != nil {
			return nil, err
		}
		b = &load.DIMBackend{Sys: d, Net: e.Arms[0].Net}
	case "ght":
		b = &load.GHTBackend{Sys: e.AddGHT(backend, nil), Net: e.Arms[0].Net}
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
		return load.NewActorTarget(eng, load.DefaultPerPacket), nil
	default:
		return nil, fmt.Errorf("experiment: unknown backend %q (choose from %s)", backend, strings.Join(LoadBackends(), ", "))
	}
	if _, err := e.Populate(perNode, gen); err != nil {
		return nil, err
	}
	return load.NewStationTarget(b, sched, load.DefaultCost), nil
}
