// Quickstart: deploy a sensor network, stand up the Pool storage scheme,
// insert multi-dimensional events, and answer exact- and partial-match
// range queries while counting radio messages. Every answer is checked
// against a flat scan of the inserted events.
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Deploy 300 sensors with the paper's density (≈20 neighbours in a
	//    40 m radio range) and build the GPSR routing substrate.
	src := rng.New(1)
	layout, err := field.Generate(field.DefaultSpec(300), src.Fork("layout"))
	if err != nil {
		return err
	}
	router := gpsr.New(layout)
	net := network.New(layout)
	fmt.Printf("deployed %d sensors on a %.0f m field (avg degree %.1f)\n",
		layout.N(), layout.Side, layout.AvgDegree())

	// 2. Stand up Pool for 3-dimensional events (temperature, humidity,
	//    pressure — all normalized to [0,1)).
	sys, err := pool.New(net, router, 3, src.Fork("pivots"))
	if err != nil {
		return err
	}
	for _, p := range sys.Pools() {
		fmt.Printf("  %v\n", p)
	}

	// 3. Every sensor detects a few events and stores them data-centrically.
	gen := src.Fork("events")
	var all []event.Event
	for node := 0; node < layout.N(); node++ {
		for i := 0; i < 3; i++ {
			e := event.Event{
				Values: []float64{gen.Float64(), gen.Float64(), gen.Float64()},
				Seq:    uint64(len(all) + 1),
			}
			if err := sys.Insert(node, e); err != nil {
				return err
			}
			all = append(all, e)
		}
	}
	insertCost := dcs.Report(net.Snapshot())
	fmt.Printf("inserted %d events in %d messages (%.1f msgs/event)\n",
		len(all), insertCost.InsertMessages, float64(insertCost.InsertMessages)/float64(len(all)))

	// ask answers q at the sink, prints what it cost, and holds the answer
	// to what a flat scan of every inserted event finds.
	sink := 7
	ask := func(what string, q event.Query) ([]event.Event, error) {
		before := net.Snapshot()
		matches, err := sys.Query(sink, q)
		if err != nil {
			return nil, err
		}
		cost := dcs.Report(net.Diff(before))
		fmt.Printf("%s query %v → %d events, %d messages\n",
			what, q, len(matches), cost.QueryMessages+cost.ReplyMessages)
		want := q.Filter(all)
		if !slices.Equal(seqs(matches), seqs(want)) {
			return nil, fmt.Errorf("%s query found %d events, a flat scan %d", what, len(matches), len(want))
		}
		return want, nil
	}

	// 4. An exact-match range query: all three attributes bounded.
	exact := event.NewQuery(
		event.Span(0.2, 0.4), // temperature in [0.2, 0.4]
		event.Span(0.1, 0.6), // humidity in [0.1, 0.6]
		event.Span(0.0, 0.9), // pressure in [0.0, 0.9]
	)
	if _, err := ask("exact", exact); err != nil {
		return err
	}

	// 5. A partial-match range query: only pressure is constrained; the
	//    other attributes are "don't care" (the paper's Example 3.2).
	partial := event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84))
	matches, err := ask("partial", partial)
	if err != nil {
		return err
	}

	// 6. Aggregates travel the same splitter tree with constant-size
	//    partials.
	avg, err := sys.Aggregate(sink, partial, pool.AggAvg, 3)
	if err != nil {
		return err
	}
	fmt.Printf("AVG(pressure) over the partial query = %.3f\n", avg)
	sum := 0.0
	for _, e := range matches {
		sum += e.Values[2]
	}
	if want := sum / float64(len(matches)); math.Abs(avg-want) > 1e-9 {
		return fmt.Errorf("AVG = %v, a flat scan %v", avg, want)
	}
	return nil
}

// seqs returns the sorted sequence numbers of events.
func seqs(events []event.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	slices.Sort(out)
	return out
}
