package experiment

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelMatchesSequential is the determinism contract of the
// parallel engine: for every experiment family that exercises a distinct
// fan-out shape — Churn (per-rate simulations), LoadBalance (per-universe
// replay over a shared router), Energy (concurrent pool/dim query
// passes) — the rendered table at Parallel=8 must be byte-identical to
// the sequential run, across several seeds.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed table comparison is slow")
	}
	runs := []struct {
		name string
		run  func(cfg Config) (*Result, error)
	}{
		{"churn", func(cfg Config) (*Result, error) { return Churn(cfg, []int{0, 10}) }},
		{"loadbalance", LoadBalance},
		{"energy", Energy},
	}
	for _, seed := range []int64{42, 7, 1234} {
		for _, r := range runs {
			r := r
			t.Run(fmt.Sprintf("%s/seed%d", r.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := Quick()
				cfg.Seed = seed
				cfg.Parallel = 1
				seq, err := r.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The parallel run goes through RunTables, so the table's
				// nested fan-outs share one pool as in a poolsim run.
				cfg.Parallel = 8
				var par *Result
				err = RunTables(cfg, []Table{{Name: r.name, Run: r.run}}, func(o Outcome) error {
					par = o.Result
					return o.Err
				})
				if err != nil {
					t.Fatal(err)
				}
				if seq.String() != par.String() {
					t.Fatalf("parallel run diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
				}
			})
		}
	}
}

// TestForEachOrderAndErrors pins the runner's contract: results come back
// in index order regardless of pool size, and the error of the
// lowest-indexed failing trial wins.
func TestForEachOrderAndErrors(t *testing.T) {
	for _, size := range []int{1, 3, 16} {
		w := Config{Parallel: size}.parallel()
		got, err := forEach(w, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("size=%d: index %d holds %d", size, i, v)
			}
		}

		_, err = forEach(w, 50, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("trial %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "trial 7 failed" {
			t.Fatalf("size=%d: want lowest-index error, got %v", size, err)
		}
	}

	if out, err := forEach(Config{Parallel: 4}.parallel(), 0, func(i int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty fan-out: got %v, %v", out, err)
	}
}

// TestSharedPoolNestedFanOut pins the shared pool's contract: three
// tables, each an outer fan-out of 6 trials whose bodies fan out 5 inner
// trials, run through RunTables on pools of 1, 2 and 8 tokens. Results
// come back in index order and tables in the order given, the
// lowest-index error wins at each level, and no more trial bodies run at
// once than the pool has tokens. That the test returns at all shows no
// waiting caller starves the pool.
func TestSharedPoolNestedFanOut(t *testing.T) {
	const outer, inner = 6, 5
	for _, size := range []int{1, 2, 8} {
		var running, high atomic.Int64
		body := func() {
			n := running.Add(1)
			for m := high.Load(); n > m && !high.CompareAndSwap(m, n); m = high.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			running.Add(-1)
		}
		table := func(id string, failAt [2]int) Table {
			return Table{Name: id, ID: id, Run: func(cfg Config) (*Result, error) {
				rows, err := forEach(cfg.parallel(), outer, func(i int) ([]int, error) {
					return forEach(cfg.parallel(), inner, func(j int) (int, error) {
						body()
						if i >= failAt[0] && j >= failAt[1] {
							return 0, fmt.Errorf("%s: trial %d.%d failed", id, i, j)
						}
						return i*inner + j, nil
					})
				})
				if err != nil {
					return nil, err
				}
				for i, row := range rows {
					for j, v := range row {
						if v != i*inner+j {
							return nil, fmt.Errorf("%s: trial %d.%d holds %d", id, i, j, v)
						}
					}
				}
				return &Result{ID: id}, nil
			}}
		}
		never := [2]int{outer, inner}
		tables := []Table{table("a", never), table("b", [2]int{2, 3}), table("c", never)}
		var order []string
		err := RunTables(Config{Parallel: size}, tables, func(o Outcome) error {
			order = append(order, o.Table.ID)
			if o.Table.ID == "b" {
				if o.Err == nil || o.Err.Error() != "b: trial 2.3 failed" {
					t.Errorf("size=%d: want the lowest-index error, got %v", size, o.Err)
				}
				return nil
			}
			if o.Err != nil || o.Result.ID != o.Table.ID {
				t.Errorf("size=%d: table %s: %v", size, o.Table.ID, o.Err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if fmt.Sprint(order) != "[a b c]" {
			t.Errorf("size=%d: tables emitted as %v", size, order)
		}
		if h := high.Load(); h > int64(size) || (size > 1 && h < 2) {
			t.Errorf("size=%d: %d trial bodies ran at once", size, h)
		}
	}
}

// TestRunTablesStopsAtEmitError: an error from emit ends the run with that
// error, and no table after it is emitted.
func TestRunTablesStopsAtEmitError(t *testing.T) {
	var tables []Table
	for i := 0; i < 6; i++ {
		id := fmt.Sprint(i)
		tables = append(tables, Table{Name: id, ID: id, Run: func(Config) (*Result, error) { return &Result{ID: id}, nil }})
	}
	stop := errors.New("stop")
	var emitted []string
	err := RunTables(Config{Parallel: 2}, tables, func(o Outcome) error {
		emitted = append(emitted, o.Result.ID)
		if o.Result.ID == "2" {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || fmt.Sprint(emitted) != "[0 1 2]" {
		t.Fatalf("got %v after emitting %v", err, emitted)
	}
}
