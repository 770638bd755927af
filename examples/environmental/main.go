// Environmental monitoring: the paper's motivating scenario (§1). Sensors
// measure temperature, humidity, and barometric pressure; an operator asks
// domain questions that translate into the four query classes of §2.
//
// Raw readings live in physical units and are normalized into [0,1) before
// entering the DCS layer, as the paper's data model assumes.
package main

import (
	"fmt"
	"log"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
)

// attribute describes one measured quantity and its physical range.
type attribute struct {
	name     string
	min, max float64
	unit     string
}

var attrs = []attribute{
	{name: "temperature", min: -10, max: 50, unit: "°C"},
	{name: "humidity", min: 0, max: 100, unit: "%"},
	{name: "pressure", min: 950, max: 1050, unit: "hPa"},
}

// normalize maps a physical reading into [0, 1).
func (a attribute) normalize(v float64) float64 {
	n := (v - a.min) / (a.max - a.min)
	return rng.Clamp01(n)
}

// span builds a normalized query range from physical bounds.
func (a attribute) span(lo, hi float64) event.Range {
	return event.Span(a.normalize(lo), a.normalize(hi))
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := rng.New(20260705)
	layout, err := field.Generate(field.DefaultSpec(600), src.Fork("layout"))
	if err != nil {
		return err
	}
	net := network.New(layout)
	sys, err := pool.New(net, gpsr.New(layout), len(attrs), src.Fork("pivots"))
	if err != nil {
		return err
	}

	// A day of weather: mild morning, hot dry noon, a pressure drop as a
	// storm front arrives in the evening.
	gen := src.Fork("weather")
	seq := uint64(0)
	sample := func(node int, tempC, humPct, presHPa float64) error {
		seq++
		e := event.Event{
			Values: []float64{
				attrs[0].normalize(tempC + gen.Normal(0, 1.5)),
				attrs[1].normalize(humPct + gen.Normal(0, 4)),
				attrs[2].normalize(presHPa + gen.Normal(0, 2)),
			},
			Seq: seq,
		}
		return sys.Insert(node, e)
	}
	for node := 0; node < layout.N(); node++ {
		if err := sample(node, 14, 70, 1018); err != nil { // morning
			return err
		}
		if err := sample(node, 33, 30, 1014); err != nil { // noon
			return err
		}
		if err := sample(node, 22, 85, 988); err != nil { // storm front
			return err
		}
	}
	fmt.Printf("%d sensors reported %d readings\n", layout.N(), seq)

	sink := 0
	ask := func(what string, q event.Query) (int, error) {
		before := net.Snapshot()
		matches, err := sys.Query(sink, q)
		if err != nil {
			return 0, err
		}
		d := net.Diff(before)
		fmt.Printf("%-58s → %4d readings, %4d messages\n",
			what, len(matches), d.Messages[network.KindQuery]+d.Messages[network.KindReply])
		return len(matches), nil
	}

	// Type 3: exact-match range query over all attributes.
	if _, err := ask("heat stress: T in [30,40]°C and humidity below 40%",
		event.NewQuery(attrs[0].span(30, 40), attrs[1].span(0, 40), attrs[2].span(950, 1050))); err != nil {
		return err
	}

	// Type 4: partial-match range query — the common case (§2).
	stormy := event.NewQuery(event.Unspecified(), event.Unspecified(), attrs[2].span(950, 1000))
	watched, err := ask("storm watch: pressure below 1000 hPa (others don't care)", stormy)
	if err != nil {
		return err
	}

	if _, err := ask("fog risk: humidity in [80,100]% (others don't care)",
		event.NewQuery(event.Unspecified(), attrs[1].span(80, 100), event.Unspecified())); err != nil {
		return err
	}

	// Aggregates ride the splitter tree with constant-size partials, and
	// count what the storm-watch query returned.
	n, err := sys.Aggregate(sink, stormy, pool.AggCount, 0)
	if err != nil {
		return err
	}
	if int(n) != watched {
		return fmt.Errorf("COUNT over the storm watch = %v, the query returned %d", n, watched)
	}
	avgT, err := sys.Aggregate(sink, stormy, pool.AggAvg, 1)
	if err != nil {
		return err
	}
	// De-normalize the answer back to physical units.
	tempC := attrs[0].min + avgT*(attrs[0].max-attrs[0].min)
	fmt.Printf("during low pressure: %d readings, average temperature %.1f %s\n",
		int(n), tempC, attrs[0].unit)
	return nil
}
