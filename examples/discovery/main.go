// Discovery: the infrastructure the paper takes as given (§2) — periodic
// beacon exchange building neighbour tables — running on the
// deterministic discrete-event kernel. The example shows convergence,
// beacon traffic, what a node failure looks like from its neighbours'
// side, and the eviction timing.
package main

import (
	"fmt"
	"log"
	"time"

	"pooldcs/internal/discovery"
	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := rng.New(2026)
	layout, err := field.Generate(field.DefaultSpec(300), src.Fork("layout"))
	if err != nil {
		return err
	}
	sched := sim.NewScheduler()
	net := network.New(layout)
	proto := discovery.New(net, sched, src.Fork("beacons"), discovery.Config{Interval: time.Second})
	proto.Start()

	// Let two beacon rounds pass.
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		return err
	}
	ok, diag := proto.Converged()
	fmt.Printf("t=%v: converged=%v %s\n", sched.Now(), ok, diag)
	fmt.Printf("beacons sent so far: %d (%.1f per node per round)\n",
		net.Snapshot().Messages[network.KindControl],
		float64(net.Snapshot().Messages[network.KindControl])/float64(layout.N())/2)

	// A node dies mid-operation.
	victim := 42
	witness := layout.Neighbors(victim)[0]
	fmt.Printf("\nnode %d fails at t=%v; node %d is one of its %d neighbours\n",
		victim, sched.Now(), witness, len(layout.Neighbors(victim)))
	proto.Fail(victim)

	inTable := func() bool {
		for _, v := range proto.Neighbors(witness) {
			if v == victim {
				return true
			}
		}
		return false
	}
	for _, horizon := range []time.Duration{3 * time.Second, 5 * time.Second, 10 * time.Second} {
		if err := sched.RunUntil(horizon, 0); err != nil {
			return err
		}
		fmt.Printf("t=%-4v node %d still in %d's table: %v\n",
			sched.Now(), victim, witness, inTable())
	}
	if inTable() {
		return fmt.Errorf("failed node was never evicted")
	}
	ok, diag = proto.Converged()
	if !ok {
		return fmt.Errorf("survivors inconsistent: %s", diag)
	}
	fmt.Println("\nsurvivors' tables match the oracle topology minus the failed node")

	proto.Stop()
	fmt.Printf("total events processed by the kernel: %d\n", sched.Executed())
	return nil
}
