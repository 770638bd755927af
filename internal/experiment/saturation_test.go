package experiment

import (
	"strconv"
	"testing"
	"time"

	"pooldcs/internal/load"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// TestDeployLoadBackends deploys every backend poolload offers, and an
// unknown name, which must fail.
func TestDeployLoadBackends(t *testing.T) {
	for _, backend := range append(LoadBackends(), "nosuch") {
		target, err := DeployLoad(backend, 40, 3, 1, rng.New(1), sim.NewScheduler())
		if backend == "nosuch" {
			if err == nil {
				t.Error("unknown backend deployed")
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", backend, err)
			continue
		}
		if target.Name() != backend || !target.Supports(load.PointQuery) {
			t.Errorf("%s: deployed %q, point queries supported %v", backend, target.Name(), target.Supports(load.PointQuery))
		}
	}
}

func TestSaturationShape(t *testing.T) {
	cfg := Quick()
	rates := []float64{50, 400}
	res, err := Saturation(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems × 2 policies × len(rates) points.
	if got, want := len(res.Table.Rows), 2*2*len(rates); got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}

	// Pull p99 (column 6) for the pool rows at the overload rate: the
	// admit-all tail must dwarf the shed tail — the knee the table exists
	// to show.
	p99 := func(system, admission, rate string) int64 {
		t.Helper()
		for _, row := range res.Table.Rows {
			if row[0] == system && row[1] == admission && row[2] == rate {
				v, err := strconv.ParseInt(row[6], 10, 64)
				if err != nil {
					t.Fatalf("bad p99 cell %q: %v", row[6], err)
				}
				return v
			}
		}
		t.Fatalf("no row for %s/%s/%s", system, admission, rate)
		return 0
	}
	for _, system := range []string{"pool", "dim"} {
		open, shed := p99(system, "admit-all", "400"), p99(system, "shed", "400")
		if open < 2*shed {
			t.Errorf("%s: admit-all p99 %d not ≫ shed p99 %d at overload", system, open, shed)
		}
	}

	// The attribution columns (queue%, svc%): the two phases partition
	// each query's wall clock under the station model, and overload is
	// queueing — the admit-all queue share must climb toward the knee and
	// dominate past it.
	share := func(system, admission, rate string, col int) float64 {
		t.Helper()
		for _, row := range res.Table.Rows {
			if row[0] == system && row[1] == admission && row[2] == rate {
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil {
					t.Fatalf("bad share cell %q: %v", row[col], err)
				}
				return v
			}
		}
		t.Fatalf("no row for %s/%s/%s", system, admission, rate)
		return 0
	}
	const qCol, svcCol = 9, 10
	for _, row := range res.Table.Rows {
		q, err := strconv.ParseFloat(row[qCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := strconv.ParseFloat(row[svcCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		if sum := q + svc; sum < 99 || sum > 101 {
			t.Errorf("%s/%s/%s: queue%%+svc%% = %v, want ~100", row[0], row[1], row[2], sum)
		}
	}
	for _, system := range []string{"pool", "dim"} {
		light := share(system, "admit-all", "50", qCol)
		heavy := share(system, "admit-all", "400", qCol)
		if heavy <= light {
			t.Errorf("%s: queue share did not rise toward the knee (%v%% at 50/s, %v%% at 400/s)",
				system, light, heavy)
		}
		if heavy < 50 {
			t.Errorf("%s: queue share %v%% past the knee, want queueing-dominated", system, heavy)
		}
	}
}

// TestSaturationParallelInvariance: the sweep must be byte-identical at
// any worker count — the determinism contract every table shares.
func TestSaturationParallelInvariance(t *testing.T) {
	rates := []float64{50, 200}
	seq := Quick()
	seq.Parallel = 1
	par := Quick()
	par.Parallel = 4

	a, err := Saturation(seq, rates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Saturation(par, rates)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.String() != b.Table.String() {
		t.Fatalf("parallel sweep diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", a.Table, b.Table)
	}
}

// TestDeployLoadStations pins the serving station of each station-model
// target DeployLoad builds: for Pool the index node of an insert and the
// first relevant Pool's splitter of a query, for DIM the owner of the
// event's zone and of the first relevant zone, for GHT the home node of
// the hashed values. A twin deployment drawn from the same forks
// computes the expected stations.
func TestDeployLoadStations(t *testing.T) {
	const n, dims = 60, 3
	for _, backend := range []string{"pool", "dim", "ght"} {
		target, err := DeployLoad(backend, n, dims, 1, rng.New(1), sim.NewScheduler())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		src := rng.New(1)
		twin, err := Deploy(n, dims, src)
		if err != nil {
			t.Fatal(err)
		}
		src.Fork("preload")
		var want func(op *load.Op) int
		switch backend {
		case "pool":
			p, err := twin.AddPool(backend, src.Fork("pivots"), nil)
			if err != nil {
				t.Fatal(err)
			}
			want = func(op *load.Op) int {
				if op.Class == load.Insert {
					_, index, err := p.Place(op.Node, op.Event)
					if err != nil {
						t.Fatal(err)
					}
					return index
				}
				var plan pool.Plan
				if err := p.Resolve(op.Query, &plan); err != nil || len(plan.Fanouts) == 0 {
					t.Fatalf("pool: %v resolves to %d pools: %v", op.Query, len(plan.Fanouts), err)
				}
				return p.SplitterFor(plan.Fanouts[0].Pool, op.Node)
			}
		case "dim":
			d, err := twin.AddDIM(backend, nil)
			if err != nil {
				t.Fatal(err)
			}
			want = func(op *load.Op) int {
				if op.Class == load.Insert {
					return d.ZoneOf(op.Event.Values).Owner
				}
				zs := d.RelevantZones(op.Query)
				if len(zs) == 0 {
					t.Fatalf("dim: %v has no relevant zone", op.Query)
				}
				return zs[0].Owner
			}
		case "ght":
			g := twin.AddGHT(backend, nil)
			want = func(op *load.Op) int {
				values := op.Event.Values
				if op.Class != load.Insert {
					values = nil
					for _, r := range op.Query.Ranges {
						values = append(values, r.L)
					}
				}
				return twin.Layout.Nearest(g.HashPoint(values))
			}
		}
		opSrc := rng.New(2)
		qgen := workload.NewQueries(opSrc.Fork("queries"), dims)
		egen := workload.NewUniformEvents(opSrc.Fork("events"), dims)
		moved := map[load.Class]int{}
		for i := 0; i < 30; i++ {
			ops := []*load.Op{
				{Class: load.Insert, Node: opSrc.Intn(n), Event: egen.Next()},
				{Class: load.PointQuery, Node: opSrc.Intn(n), Query: qgen.ZipfPoint(0.8, 64)},
				{Class: load.RangeQuery, Node: opSrc.Intn(n), Query: qgen.ExactMatch(workload.ExponentialSizes)},
			}
			for _, op := range ops {
				if !target.Supports(op.Class) {
					continue
				}
				if got, w := target.Station(op), want(op); got != w {
					t.Errorf("%s: %s from %d served at %d, want %d", backend, op.Class, op.Node, got, w)
				} else if got != op.Node {
					moved[op.Class]++
				}
			}
		}
		for _, class := range load.Classes() {
			if target.Supports(class) && moved[class] == 0 {
				t.Errorf("%s: every %s is served at its issuing node", backend, class)
			}
		}
	}
}

// TestLoadEngineRefusesGHTRanges: GHT hashes whole events to a point, so
// a load run over it accepts a point-and-insert mix and refuses any mix
// with range queries.
func TestLoadEngineRefusesGHTRanges(t *testing.T) {
	const n, dims = 40, 3
	for _, tc := range []struct {
		mix load.Mix
		ok  bool
	}{
		{load.Mix{Point: 0.9, Insert: 0.1}, true},
		{load.DefaultMix, false},
	} {
		sched := sim.NewScheduler()
		target, err := DeployLoad("ght", n, dims, 1, rng.New(1), sched)
		if err != nil {
			t.Fatal(err)
		}
		_, err = load.NewEngine(sched, target, n, load.Config{Seed: 1, Rate: 10, Duration: time.Second, Dims: dims, Mix: tc.mix})
		if (err == nil) != tc.ok {
			t.Errorf("mix %+v: NewEngine error %v, want accepted %v", tc.mix, err, tc.ok)
		}
	}
}
