package experiment

// runner.go is the parallel trial engine. Every experiment table is a
// sweep of independent trials — one per (parameter point) or per
// (parameter point, repetition) — and each trial seeds its own rng.Source
// from the Config seed plus a point-specific offset, touching no state
// outside its own Env. That independence is what makes the tables safe to
// fan out across goroutines: forEach runs the trial bodies on a worker
// pool and hands the results back in index order, so the rows a table
// emits — and therefore the golden files — are byte-identical to a
// sequential run.
//
// Determinism contract: a trial body must derive all randomness from
// sources seeded by its own index (never from a source shared across
// trials), must not mutate shared state, and may share a *gpsr.Router
// only for read-only routing (the router must be planarized before the
// fan-out; Route on a clean router does not mutate it).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pooldcs/internal/texttable"
)

// parallel resolves the configured worker count: Parallel itself when
// positive, otherwise GOMAXPROCS.
func (c Config) parallel() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) on up to workers goroutines and returns the
// results in index order. With workers ≤ 1 it degenerates to a plain
// sequential loop on the calling goroutine — no goroutines, no
// synchronization — so single-core runs pay nothing for the machinery.
//
// Error semantics match the sequential loop: the error of the
// lowest-indexed failing trial is returned (later trials may still have
// run — workers pull indices from a shared counter and are not cancelled
// mid-trial).
func forEach[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweep runs a table whose rows are independent trials: trial i renders
// row i, the trials fan out over the worker pool, and the rows land in
// index order.
func sweep(cfg Config, id string, table *texttable.Table, n int, trial func(i int) ([]string, error)) (*Result, error) {
	rows, err := forEach(cfg.parallel(), n, trial)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	return &Result{ID: id, Title: table.Title, Table: table}, nil
}
