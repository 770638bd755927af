package experiment

import (
	"fmt"

	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Resilience measures query recall under random node failures, with and
// without Pool's cell-level replication (an extension in the spirit of
// the resilient-DCS work the paper cites as [7]): the fraction of stored
// events still retrievable after a growing share of nodes dies, plus the
// recovery traffic replication spends.
//
// With cfg.Backend == "node" the sweep runs on the event-driven actor
// engine instead (see resilienceNode): the same crash storm, but every
// re-election and mirror restore is a real multi-hop exchange.
func Resilience(cfg Config, failPcts []int) (*Result, error) {
	if cfg.Backend == "node" {
		return resilienceNode(cfg, failPcts)
	}
	title := fmt.Sprintf("Query recall under node failures, N=%d", cfg.PartialSize)
	table := texttable.New(title, "Failed%", "Pool recall", "Pool+replica recall", "RecoveryMsgs")

	return sweep(cfg, "ablation-resilience", table, len(failPcts), func(i int) ([]string, error) {
		pct := failPcts[i]
		src := rng.New(cfg.Seed + 9800 + int64(pct))
		env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		plain, err := env.AddPool("Pool", src.Fork("pivots"), nil)
		if err != nil {
			return nil, err
		}
		repl, err := env.AddPool("Pool+replica", src.Fork("pivots-repl"), nil, pool.WithReplication())
		if err != nil {
			return nil, err
		}
		events, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err != nil {
			return nil, err
		}

		// Kill the same random nodes in both systems.
		dead, err := env.failRandom(cfg.PartialSize*pct/100, src.Fork("kills"))
		if err != nil {
			return nil, err
		}
		sink := liveSink(dead, 0, cfg.PartialSize)

		plainGot, err := plain.Query(sink, fullSpan(cfg.Dims))
		if err != nil {
			return nil, err
		}
		replGot, err := repl.Query(sink, fullSpan(cfg.Dims))
		if err != nil {
			return nil, err
		}
		total := float64(len(events))
		return []string{texttable.Int(pct),
			texttable.Float(float64(len(plainGot))/total, 3),
			texttable.Float(float64(len(replGot))/total, 3),
			texttable.Int(int(repl.RecoveryMessages()))}, nil
	})
}

// resilienceNode is the actor-engine flavour of the resilience sweep
// (poolsim -backend=node, optionally -repair). Each crash tears the
// victim down at every layer — routing, radio, storage — and, when
// replication is on, launches the message-driven repair: suspicion,
// re-election claims and grants, and hop-by-hop mirror transfer chunks,
// all racing the other crashes of the storm. The query drains the
// scheduler, so the reported recall is the post-convergence state; the
// repair columns price what convergence cost.
func resilienceNode(cfg Config, failPcts []int) (*Result, error) {
	mode := "unreplicated"
	if cfg.Repair {
		mode = "mirrored, message-driven restore"
	}
	title := fmt.Sprintf("Query recall under node failures, N=%d (actor backend, %s)", cfg.PartialSize, mode)
	table := texttable.New(title, "Failed%", "Recall", "Compl", "Repair msgs", "Rep p95 ms")

	return sweep(cfg, "ablation-resilience", table, len(failPcts), func(i int) ([]string, error) {
		pct := failPcts[i]
		src := rng.New(cfg.Seed + 9800 + int64(pct))
		env, err := Deploy(cfg.PartialSize, cfg.Dims, src)
		if err != nil {
			return nil, err
		}
		var opts []node.Option
		if cfg.Repair {
			opts = append(opts, node.WithReplication())
		}
		eng, err := env.AddActor("node", src.Fork("pivots"), nil, opts...)
		if err != nil {
			return nil, err
		}
		events, err := env.Populate(cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		if err != nil {
			return nil, err
		}

		dead, err := env.failRandom(cfg.PartialSize*pct/100, src.Fork("kills"))
		if err != nil {
			return nil, err
		}
		got, comp, err := env.Arms[0].Sys.QueryWithReport(liveSink(dead, 0, cfg.PartialSize), fullSpan(cfg.Dims))
		if err != nil {
			return nil, err
		}
		if errs := eng.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("resilience %d%%: %w", pct, errs[0])
		}
		msgs, _ := eng.RepairTraffic()
		return []string{texttable.Int(pct),
			texttable.Float(float64(len(got))/float64(len(events)), 3),
			texttable.Float(comp.Fraction(), 3),
			texttable.Int(int(msgs)),
			texttable.Int(int(eng.RepairLatency().Quantile(95)))}, nil
	})
}
