package pool

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// TestTrafficPin replays one seeded script through every operation that
// walks the forwarding tree and compares the per-kind counters with the
// values the four hand-written fan-outs produced before they became one
// walk: fault-free traffic must not move by a message or a byte.
func TestTrafficPin(t *testing.T) {
	s, net := newSystem(t, 300, 90)
	src := rng.New(91)
	for i := 0; i < 600; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		if err := s.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
	}
	span := func() event.Range {
		lo := src.Float64() * 0.7
		return event.Span(lo, lo+0.05+src.Float64()*0.25)
	}
	results := 0
	for i := 0; i < 50; i++ {
		q := event.NewQuery(span(), span(), span())
		if i%3 == 0 {
			q = event.NewQuery(span(), event.Unspecified(), span())
		}
		got, err := s.Query(src.Intn(300), q)
		if err != nil {
			t.Fatal(err)
		}
		results += len(got)
	}
	wide := event.NewQuery(event.Span(0.1, 0.8), event.Span(0.2, 0.9), event.Unspecified())
	for _, op := range []AggOp{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		if _, err := s.Aggregate(7, wide, op, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Subscribe(13, event.NewQuery(event.Span(0.6, 0.9), event.Span(0.1, 0.4), event.Unspecified())); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(17, event.New(0.75, 0.25, 0.1)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Notifications()); n != 1 {
		t.Fatalf("%d notifications, want 1", n)
	}

	c := net.Snapshot()
	want := map[network.Kind][2]uint64{ // messages, bytes
		network.KindInsert:  {2996, 119840},
		network.KindQuery:   {3739, 239296},
		network.KindReply:   {1818, 115472},
		network.KindControl: {91, 5824},
	}
	for kind, w := range want {
		if got := [2]uint64{c.Messages[kind], c.Bytes[kind]}; got != w {
			t.Errorf("%v: %d msgs / %d bytes, pinned %d / %d", kind, got[0], got[1], w[0], w[1])
		}
	}
	if results != 425 {
		t.Errorf("%d query results, pinned 425", results)
	}
}

// silentCrash loads a deployment, picks a loaded cell, and silences its
// index node without telling the directory — the undetected corpse every
// tree operation has to get past. It returns the cell, an event stored in
// it and a sink that is not the victim.
func silentCrash(t *testing.T, opts ...Option) (*System, []event.Event, Key, event.Event, int) {
	t.Helper()
	s, net, router := newUniverse(t, 300, 95, opts...)
	all := loadEvents(t, s, 300, 96)
	key, index, err := s.Place(0, all[0])
	if err != nil {
		t.Fatal(err)
	}
	router.Exclude(index)
	net.FailNode(index)
	sink := 0
	for sink == index {
		sink++
	}
	return s, all, key, all[0], sink
}

func pointQuery(e event.Event) event.Query {
	return event.NewQuery(event.PointRange(e.Values[0]), event.PointRange(e.Values[1]), event.PointRange(e.Values[2]))
}

// Without a mirror the cell behind a corpse stays unreached, and the two
// operations that have no use for a partial outcome say so by name.
func TestTreeOperationsNameUnreachedCells(t *testing.T) {
	s, _, key, e, sink := silentCrash(t)
	label := CellLabel(key.Dim, key.Cell)
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, dcs.ErrUnreachable) || !strings.Contains(err.Error(), label) {
			t.Errorf("%s past a corpse: err = %v, want unreachable naming %q", op, err, label)
		}
	}
	_, err := s.Aggregate(sink, pointQuery(e), AggCount, 0)
	check("aggregate", err)
	sub, err := s.Subscribe(sink, pointQuery(e))
	check("subscribe", err)
	if sub == nil {
		t.Error("subscribe dropped the registrations it did make")
	}

}

// With replication the retry is served by the cell's mirror, so the same
// operations go through whole.
func TestTreeOperationsServedByMirror(t *testing.T) {
	s, all, key, e, sink := silentCrash(t, WithReplication())
	if n, err := s.Aggregate(sink, pointQuery(e), AggCount, 0); err != nil || n != 1 {
		t.Errorf("COUNT = %v, %v; want 1 from the mirror", n, err)
	}
	sub, err := s.Subscribe(sink, pointQuery(e))
	if err != nil || !slices.Contains(s.subs[s.slot(key)], sub) {
		t.Errorf("subscribe through the mirror: %v, registered %v", err, s.subs[s.slot(key)])
	}
	// Once the failure is detected the restore takes what the mirror holds.
	if err := s.FailNode(s.IndexNode(key.Cell)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after the restore from the mirror: %v", err)
	}
	got, comp, err := s.QueryWithReport(sink, fullDomain())
	if err != nil || !comp.Complete() {
		t.Fatalf("query after repair: %v, %+v", err, comp)
	}
	if len(got) != len(all) || !slices.ContainsFunc(got, func(x event.Event) bool { return x.Seq == e.Seq }) {
		t.Errorf("%d of %d events after repair, the restored cell's event among them: %v",
			len(got), len(all), slices.ContainsFunc(got, func(x event.Event) bool { return x.Seq == e.Seq }))
	}
}

func TestAggregateValidatesBeforeTraffic(t *testing.T) {
	s, net := newSystem(t, 300, 97)
	for _, call := range []struct {
		op  AggOp
		dim int
	}{{AggOp(42), 1}, {AggOp(0), 1}, {AggSum, 0}, {AggMax, 4}} {
		if _, err := s.Aggregate(3, fullDomain(), call.op, call.dim); err == nil {
			t.Errorf("Aggregate(%v, dim %d) accepted", call.op, call.dim)
		}
	}
	if n := net.Snapshot().Total(); n != 0 {
		t.Errorf("rejected aggregates cost %d messages", n)
	}
}
