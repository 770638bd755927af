package experiment

import (
	"strconv"
	"testing"

	"pooldcs/internal/load"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
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
