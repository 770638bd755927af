package ght

import (
	"errors"
	"strings"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

func newSystem(t testing.TB, n int, seed int64) (*System, *network.Network) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	return New(net, gpsr.New(l)), net
}

func TestHashPointDeterministicAndInField(t *testing.T) {
	s, net := newSystem(t, 300, 1)
	src := rng.New(2)
	for i := 0; i < 200; i++ {
		vals := []float64{src.Float64(), src.Float64(), src.Float64()}
		p1 := s.HashPoint(vals)
		p2 := s.HashPoint(vals)
		if !p1.Equal(p2) {
			t.Fatal("HashPoint not deterministic")
		}
		if !net.Layout().Bounds().ContainsClosed(p1) {
			t.Fatalf("hashed point %v outside field", p1)
		}
	}
}

func TestHashPointSpreads(t *testing.T) {
	s, net := newSystem(t, 300, 3)
	src := rng.New(4)
	side := net.Layout().Side
	var left int
	const n = 2000
	for i := 0; i < n; i++ {
		p := s.HashPoint([]float64{src.Float64(), src.Float64(), src.Float64()})
		if p.X < side/2 {
			left++
		}
	}
	if left < n/3 || left > 2*n/3 {
		t.Errorf("hash badly skewed: %d/%d points in left half", left, n)
	}
}

func TestInsertAndExactQuery(t *testing.T) {
	s, net := newSystem(t, 300, 5)
	e := event.New(0.25, 0.5, 0.75)
	e.Seq = 1
	if err := s.Insert(10, e); err != nil {
		t.Fatal(err)
	}
	if net.Snapshot().Messages[network.KindInsert] == 0 {
		t.Error("insert generated no traffic")
	}

	q := event.NewQuery(event.PointRange(0.25), event.PointRange(0.5), event.PointRange(0.75))
	got, err := s.Query(200, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("Query = %v, want the inserted event", got)
	}
}

func TestQueryMiss(t *testing.T) {
	s, _ := newSystem(t, 300, 6)
	if err := s.Insert(0, event.New(0.1, 0.2, 0.3)); err != nil {
		t.Fatal(err)
	}
	q := event.NewQuery(event.PointRange(0.9), event.PointRange(0.9), event.PointRange(0.9))
	got, err := s.Query(1, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("miss returned %v", got)
	}
}

func TestRangeQueryUnsupported(t *testing.T) {
	s, _ := newSystem(t, 300, 7)
	q := event.NewQuery(event.Span(0.1, 0.2), event.PointRange(0.5), event.PointRange(0.5))
	if _, err := s.Query(0, q); !errors.Is(err, ErrUnsupported) {
		t.Errorf("range query err = %v, want ErrUnsupported", err)
	}
	pq := event.NewQuery(event.Unspecified(), event.PointRange(0.5), event.PointRange(0.5))
	if _, err := s.Query(0, pq); !errors.Is(err, ErrUnsupported) {
		t.Errorf("partial query err = %v, want ErrUnsupported", err)
	}
}

func TestInsertRejectsInvalid(t *testing.T) {
	s, _ := newSystem(t, 300, 8)
	if err := s.Insert(0, event.New(1.5)); err == nil {
		t.Error("invalid event accepted")
	}
}

func TestQueryRejectsInvalid(t *testing.T) {
	s, _ := newSystem(t, 300, 8)
	if _, err := s.Query(0, event.NewQuery()); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestSameKeySameHome(t *testing.T) {
	s, _ := newSystem(t, 300, 9)
	// Insert the same key from many different origins; all copies must
	// land on one node.
	for origin := 0; origin < 20; origin++ {
		if err := s.Insert(origin*7, event.New(0.5, 0.5, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	loads := s.StorageLoad()
	nonZero := 0
	for _, l := range loads {
		if l > 0 {
			nonZero++
			if l != 20 {
				t.Errorf("home node stores %d copies, want 20", l)
			}
		}
	}
	if nonZero != 1 {
		t.Errorf("events spread over %d nodes, want 1", nonZero)
	}
}

func TestStorageLoadSpread(t *testing.T) {
	s, _ := newSystem(t, 300, 10)
	src := rng.New(11)
	const events = 600
	for i := 0; i < events; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i)
		if err := s.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
	}
	loads := s.StorageLoad()
	total, maxLoad := 0, 0
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total != events {
		t.Fatalf("stored %d events, want %d", total, events)
	}
	// Uniform keys should not concentrate badly.
	if maxLoad > events/10 {
		t.Errorf("hash hotspot: max node load %d of %d", maxLoad, events)
	}
}

func TestHomeCacheAvoidsRouteProbe(t *testing.T) {
	s, net := newSystem(t, 300, 12)
	if err := s.Insert(0, event.New(0.3, 0.3, 0.3)); err != nil {
		t.Fatal(err)
	}
	before := net.Snapshot()
	// Second insert of the same key reuses the cached home: traffic should
	// be pure unicast (bounded by network diameter), not a fresh probe.
	if err := s.Insert(0, event.New(0.3, 0.3, 0.3)); err != nil {
		t.Fatal(err)
	}
	diff := net.Diff(before)
	if diff.Messages[network.KindInsert] == 0 {
		t.Error("second insert generated no traffic")
	}
}

// TestMetricsCountOperations holds every ght_* family of a metered system
// to the operations performed: the events stored, the queries answered, the
// retries those spent on a silently crashed home, and each node's events. An insert of another k is rejected and counts
// nothing.
func TestMetricsCountOperations(t *testing.T) {
	reg := metrics.New()
	s, net, router := newFaultUniverse(t, 300, 780, WithMetrics(reg))
	if s.Name() != "GHT" {
		t.Errorf("Name() = %q", s.Name())
	}
	all := loadGHT(t, s, 60, 781)
	if err := s.Insert(0, event.New(0.1, 0.2)); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Errorf("insert of a 2-value event into a 3-value deployment = %v, want an error naming the dims", err)
	}
	victim := mostLoaded(s)
	router.Exclude(victim)
	net.FailNode(victim)
	sink := (victim + 1) % net.Layout().N()
	retries := 0
	for _, e := range all {
		_, comp, err := s.QueryWithReport(sink, pointQueryFor(e))
		if err != nil {
			t.Fatal(err)
		}
		retries += comp.Retries
	}
	if retries == 0 {
		t.Fatal("no query retried: the silent crash exercised nothing")
	}

	snap := reg.Snapshot()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"ght_inserts_total", snap.Value("ght_inserts_total"), float64(len(all))},
		{"ght_queries_total", snap.Value("ght_queries_total"), float64(len(all))},
		{"ght_query_retries_total", snap.Value("ght_query_retries_total"), float64(retries)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	stored := snap.Values("ght_stored_events")
	for i, l := range s.StorageLoad() {
		if stored[i] != float64(l) {
			t.Errorf("ght_stored_events{node=%d} = %v, want %d", i, stored[i], l)
		}
	}
}
