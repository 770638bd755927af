package experiment

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/rng"
	"pooldcs/internal/workload"
)

// TestSchemeFamilies holds each scheme's operation families on a metered
// deployment to the operations issued: <scheme>_inserts_total to the
// events stored, <scheme>_queries_total to the queries answered, and
// <scheme>_query_retries_total and, for Pool and DIM, the fan-out
// summary's count and sum to the queries' Completeness reports summed
// (a GHT query addresses its key's one home, so GHT keeps no fan-out
// summary). Nodes crashed silently
// after the load (radio down, no scheme told) make the queries retry.
func TestSchemeFamilies(t *testing.T) {
	const n, dims, queries = 150, 3, 60
	env, err := Deploy(n, dims, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	env.metered = true
	if _, err := env.AddPool("pool", rng.New(6), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddDIM("dim", nil); err != nil {
		t.Fatal(err)
	}
	env.AddGHT("ght", nil)
	events, err := env.Populate(2, workload.NewUniformEvents(rng.New(7), dims))
	if err != nil {
		t.Fatal(err)
	}
	crash := rng.New(8)
	dead := map[int]bool{}
	for len(dead) < n/10 {
		v := crash.Intn(n)
		dead[v] = true
		for _, a := range env.Arms {
			a.Net.FailNode(v)
		}
	}

	for i, tc := range []struct{ scheme, fanout string }{
		{"pool", "pool_query_fanout_cells"},
		{"dim", "dim_query_fanout_zones"},
		{"ght", ""},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			a := env.Arms[i]
			sinks := rng.New(9)
			var retries, cells int
			for _, pe := range events[:queries] {
				rs := make([]event.Range, dims)
				for d, v := range pe.Event.Values {
					rs[d] = event.PointRange(v)
				}
				sink := liveSink(dead, sinks.Intn(n), n)
				_, comp, err := a.Sys.QueryWithReport(sink, event.NewQuery(rs...))
				if err != nil {
					t.Fatal(err)
				}
				retries += comp.Retries
				cells += comp.CellsTotal
			}
			if retries == 0 {
				t.Fatal("no query retried: the silent crashes exercised nothing")
			}
			snap := a.Reg.Snapshot()
			type check struct {
				name      string
				got, want float64
			}
			checks := []check{
				{tc.scheme + "_inserts_total", snap.Value(tc.scheme + "_inserts_total"), float64(len(events))},
				{tc.scheme + "_queries_total", snap.Value(tc.scheme + "_queries_total"), queries},
				{tc.scheme + "_query_retries_total", snap.Value(tc.scheme + "_query_retries_total"), float64(retries)},
			}
			if tc.fanout != "" {
				fan := snap.Values(tc.fanout) // p50, p95, p99, sum, count
				if len(fan) != 5 {
					t.Fatalf("%s points = %v", tc.fanout, fan)
				}
				checks = append(checks, check{tc.fanout + "_count", fan[4], queries}, check{tc.fanout + "_sum", fan[3], float64(cells)})
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				}
			}
		})
	}
}
