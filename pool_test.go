package pooldcs

// The Pool operations a user reaches first — insert, exact and partial
// range query, aggregate, subscribe — checked on a pool.System stood up
// the way the examples stand it up.

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
)

// newPool deploys 300 nodes for 3-dimensional events and adds one Pool arm.
func newPool(t *testing.T, seed int64) (*pool.System, *network.Network) {
	t.Helper()
	src := rng.New(seed)
	env, err := experiment.Deploy(300, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := env.AddPool("Pool", src.Fork("pivots"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, env.Arms[0].Net
}

// insert stores the reading values sensed at origin under sequence number seq.
func insert(t *testing.T, p *pool.System, origin int, seq uint64, values ...float64) event.Event {
	t.Helper()
	e := event.Event{Values: values, Seq: seq}
	if err := p.Insert(origin, e); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInsertAndQueryRoundTrip(t *testing.T) {
	p, net := newPool(t, 2)
	e := insert(t, p, 10, 1, 0.4, 0.3, 0.1)
	got, err := p.Query(0, event.NewQuery(event.Span(0.35, 0.45), event.Span(0.25, 0.35), event.Span(0.05, 0.15)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != e.Seq {
		t.Fatalf("Query = %v, want the inserted event", got)
	}
	if net.Snapshot().Total() == 0 {
		t.Error("no traffic recorded")
	}
}

func TestPartialQueryWithWildcard(t *testing.T) {
	p, _ := newPool(t, 3)
	insert(t, p, 5, 1, 0.2, 0.9, 0.81)
	insert(t, p, 6, 2, 0.2, 0.9, 0.2)
	got, err := p.Query(1, event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("partial query = %v, want the first event only", got)
	}
}

func TestAggregateFacade(t *testing.T) {
	p, _ := newPool(t, 4)
	vals := [][3]float64{{0.1, 0.2, 0.3}, {0.2, 0.3, 0.4}, {0.3, 0.4, 0.5}}
	for i, v := range vals {
		insert(t, p, i, uint64(i+1), v[0], v[1], v[2])
	}
	all := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
	n, err := p.Aggregate(0, all, pool.AggCount, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Count = %v, want 3", n)
	}
	avg, err := p.Aggregate(0, all, pool.AggAvg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 0.19 || avg > 0.21 {
		t.Errorf("Avg = %v, want 0.2", avg)
	}
}

func TestSubscribeFacade(t *testing.T) {
	p, _ := newPool(t, 11)
	sub, err := p.Subscribe(0, event.NewQuery(event.Span(0.8, 1), event.Unspecified(), event.Unspecified()))
	if err != nil {
		t.Fatal(err)
	}
	insert(t, p, 1, 1, 0.9, 0.1, 0.1)
	notes := p.Notifications()
	if len(notes) != 1 || notes[0].Sink != 0 || notes[0].Event.Seq != 1 {
		t.Fatalf("notifications = %v", notes)
	}
	if err := p.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	insert(t, p, 1, 2, 0.9, 0.2, 0.2)
	if notes := p.Notifications(); len(notes) != 0 {
		t.Errorf("notifications after unsubscribe = %v", notes)
	}
}
