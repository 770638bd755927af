// Comparison: run the same event and query workload through Pool, DIM,
// and GHT side by side — a miniature of the paper's §5 evaluation plus the
// §1 context that GHT handles only exact-match point queries.
package main

import (
	"errors"
	"fmt"
	"log"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/ght"
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
	src := rng.New(7)
	env, _, _, err := experiment.NewEnv(nodes, 3, src)
	if err != nil {
		return err
	}
	g := env.AddGHT("GHT", nil)

	// Shared event population, stored in all three arms.
	events, err := env.Populate(3, workload.NewUniformEvents(src.Fork("events"), 3))
	if err != nil {
		return err
	}
	fmt.Printf("%d events inserted into Pool, DIM, and GHT over %d nodes\n\n", len(events), nodes)

	// Range queries: Pool and DIM answer them; GHT cannot (§1), so they
	// are costed on the first two arms only.
	qgen := workload.NewQueries(src.Fork("queries"), 3)
	sinkSrc := src.Fork("sinks")
	ranges := make([]event.Query, 50)
	for i := range ranges {
		ranges[i] = qgen.ExactMatch(workload.ExponentialSizes)
	}
	queries := env.Place(sinkSrc, ranges)
	if _, err := g.Query(0, ranges[0]); !errors.Is(err, ght.ErrUnsupported) {
		return fmt.Errorf("GHT unexpectedly accepted a range query: %v", err)
	}
	pair := *env
	pair.Arms = env.Arms[:2]
	costs, err := pair.Cost(queries)
	if err != nil {
		return err
	}

	table := texttable.New("Exact-match range queries (avg messages/query)",
		"System", "Cost", "Note")
	table.AddRow("Pool", texttable.Float(costs[0].PerQuery(), 1), "")
	table.AddRow("DIM", texttable.Float(costs[1].PerQuery(), 1), "")
	table.AddRow("GHT", "-", "range queries unsupported")
	fmt.Println(table)

	// Point queries for stored events: all three can answer those, and
	// Cost checks that they return the same events.
	pickSrc := src.Fork("picks")
	points := make([]event.Query, 50)
	for i := range points {
		target := events[pickSrc.Intn(len(events))].Event
		ranges := make([]event.Range, 3)
		for j, v := range target.Values {
			ranges[j] = event.PointRange(v)
		}
		points[i] = event.NewQuery(ranges...)
	}
	if costs, err = env.Cost(env.Place(sinkSrc, points)); err != nil {
		return err
	}

	order := []int{2, 1, 0} // GHT, DIM, Pool
	table2 := texttable.New("Exact-match point queries (avg messages/query)", "System", "Cost")
	table3 := texttable.New("Insertion (avg messages/event)", "System", "Cost")
	for _, ai := range order {
		a := env.Arms[ai]
		table2.AddRow(a.Name, texttable.Float(costs[ai].PerQuery(), 1))
		table3.AddRow(a.Name, texttable.Float(a.InsertCost(events), 1))
	}
	fmt.Println(table2)
	fmt.Println(table3)
	return nil
}
