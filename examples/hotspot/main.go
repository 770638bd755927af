// Hotspot: a skewed event distribution (most readings in the same value
// range) concentrates storage on a handful of nodes. This example shows
// the §4.2 workload-sharing mechanism bounding per-node load, and what it
// costs.
package main

import (
	"fmt"
	"log"
	"sort"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nodes = 600
	const quota = 15 // events a node stores before delegating

	src := rng.New(99)
	env, plain, _, err := experiment.NewEnv(nodes, 3, src)
	if err != nil {
		return err
	}
	// A third arm on the same deployment: Pool with workload sharing.
	shared, err := env.AddPool(fmt.Sprintf("Pool+sharing(q=%d)", quota), src.Fork("pivots2"), nil,
		pool.WithWorkloadSharing(quota))
	if err != nil {
		return err
	}
	sharedArm := env.Arms[2]

	// A wildfire scenario: nearly every sensor reports the same extreme
	// reading — high temperature, low humidity.
	gen := workload.NewHotspotEvents(src.Fork("events"), []float64{0.92, 0.15, 0.4}, 0.015)
	events, err := env.Populate(3, gen)
	if err != nil {
		return err
	}
	fmt.Printf("%d skewed events inserted (plain Pool vs Pool with workload sharing)\n\n", len(events))

	describe := func(name string, loads []int, extraMsgs uint64) []string {
		sort.Sort(sort.Reverse(sort.IntSlice(loads)))
		used := 0
		for _, l := range loads {
			if l > 0 {
				used++
			}
		}
		return []string{
			name,
			texttable.Int(loads[0]),
			texttable.Int(loads[2]),
			texttable.Int(used),
			texttable.Int(int(extraMsgs)),
		}
	}

	table := texttable.New("Per-node stored events under skew",
		"System", "Max", "3rd-max", "NodesUsed", "SharingMsgs")
	table.AddRow(describe("Pool", plain.StorageLoad(), 0)...)
	table.AddRow(describe(sharedArm.Name, shared.StorageLoad(), sharedArm.Net.Messages(network.KindControl))...)
	fmt.Println(table)
	fmt.Printf("delegations performed: %d\n\n", shared.Delegations())

	// Queries remain correct and complete across delegated segments: Cost
	// refuses result sets that differ between arms.
	q := event.NewQuery(event.Span(0.85, 1), event.Span(0, 0.3), event.Unspecified())
	costs, err := env.Cost([]experiment.PlacedQuery{{Sink: 0, Query: q}})
	if err != nil {
		return err
	}
	fmt.Printf("fire-zone query: plain found %d, shared found %d (must match), %.0f messages with sharing\n",
		costs[0].Matches, costs[2].Matches, costs[2].PerQuery())
	return nil
}
