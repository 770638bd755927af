// Monitoring: the paper's §6 continuous queries in action — a standing
// query pushes matching events to a sink as they are sensed. A control
// room subscribes to "freezer out of range" alerts while sensors stream
// readings.
package main

import (
	"fmt"
	"log"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := rng.New(11)
	env, err := experiment.Deploy(400, 3, src)
	if err != nil {
		return err
	}
	sys, err := env.AddPool("Pool", src.Fork("pivots"), nil)
	if err != nil {
		return err
	}
	net := env.Arms[0].Net
	const controlRoom = 0

	// Standing alert: attribute 1 (normalized freezer temperature) drifts
	// above 0.7 — regardless of the other attributes.
	alert, err := sys.Subscribe(controlRoom,
		event.NewQuery(event.Span(0.7, 1), event.Unspecified(), event.Unspecified()))
	if err != nil {
		return err
	}
	fmt.Printf("control room (node %d) subscribed: temp ≥ 0.7 (subscription %d)\n",
		controlRoom, alert.ID)

	// Sensors stream readings; most are nominal, a few are hot.
	readings := rng.New(12)
	var seq uint64
	insert := func(node int, values ...float64) error {
		seq++
		return sys.Insert(node, event.Event{Values: values, Seq: seq})
	}
	hot := 0
	for i := 0; i < 1000; i++ {
		temp := readings.Float64() * 0.69 // nominal
		if readings.Bool(0.02) {
			temp = 0.7 + readings.Float64()*0.29 // fault
			hot++
		}
		if err := insert(readings.Intn(env.Layout.N()), temp, readings.Float64(), readings.Float64()); err != nil {
			return err
		}
	}

	notes := sys.Notifications()
	fmt.Printf("streamed 1000 readings (%d faults injected) → %d alerts pushed\n", hot, len(notes))
	if len(notes) != hot {
		return fmt.Errorf("alert mismatch: %d faults but %d alerts", hot, len(notes))
	}
	for i, n := range notes {
		if i >= 3 {
			fmt.Printf("  … and %d more\n", len(notes)-3)
			break
		}
		fmt.Printf("  alert: event %d %v\n", n.Event.Seq, n.Event)
	}

	// Unsubscribe: no further pushes.
	if err := sys.Unsubscribe(alert); err != nil {
		return err
	}
	if err := insert(1, 0.95, 0.5, 0.5); err != nil {
		return err
	}
	if after := sys.Notifications(); len(after) != 0 {
		return fmt.Errorf("received %d alerts after unsubscribing", len(after))
	}
	fmt.Println("unsubscribed; no further alerts")
	fmt.Printf("total radio messages: %d\n", net.Snapshot().Total())
	return nil
}
