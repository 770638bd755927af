package experiment

// runner.go is the parallel trial engine. Every experiment table is a
// sweep of independent trials — one per (parameter point) or per
// (parameter point, repetition) — and each trial seeds its own rng.Source
// from the Config seed plus a point-specific offset, touching no state
// outside its own Env. That independence is what makes the tables safe to
// fan out across goroutines: forEach runs the trial bodies on a pool of
// compute tokens and hands the results back in index order, so the rows a
// table emits — and therefore the golden files — are byte-identical to a
// sequential run.
//
// One pool serves a whole RunTables run: tables, their trials and the
// arms inside a trial (sweep trial → Env cost → forEach) all draw on the
// same cfg.Parallel tokens, so the trials of later tables fill the cores
// an earlier table leaves idle, and at most cfg.Parallel goroutines
// compute at once however deep the fan-outs nest.
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
	"time"

	"pooldcs/internal/texttable"
)

// workers is a pool of compute tokens: a goroutine runs trial code only
// while it holds one. Sending into tokens takes a token, receiving gives
// it back.
type workers struct {
	tokens chan struct{}
}

// newWorkers returns a pool of n free tokens (GOMAXPROCS when n ≤ 0).
func newWorkers(n int) *workers {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &workers{tokens: make(chan struct{}, n)}
}

// size is the pool's token count; a nil pool is the sequential one.
func (w *workers) size() int {
	if w == nil {
		return 1
	}
	return cap(w.tokens)
}

func (w *workers) acquire() { w.tokens <- struct{}{} }
func (w *workers) release() { <-w.tokens }

// parallel is the pool trial code fans out on: the run's shared pool
// under RunTables, otherwise a new pool of Parallel tokens, one of them
// held by the calling goroutine.
func (c Config) parallel() *workers {
	if c.workers != nil {
		return c.workers
	}
	w := newWorkers(c.Parallel)
	w.acquire()
	return w
}

// forEach runs fn(0..n-1) and returns the results in index order. The
// caller must hold one of w's tokens. It works through the indices
// itself; helpers join as tokens come free, up to one per index. Once
// the indices run out the caller hands its token back while its helpers
// finish, and takes one again before it returns, so a nested fan-out
// never holds a token idle. A pool of one token runs a plain loop on
// the calling goroutine.
//
// Error semantics match the sequential loop: the error of the
// lowest-indexed failing trial is returned (later trials may still have
// run — helpers pull indices from a shared counter and are not cancelled
// mid-trial).
func forEach[T any](w *workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if w.size() <= 1 || n <= 1 {
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
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			out[i], errs[i] = fn(i)
		}
	}
	drained := make(chan struct{})
	var wg sync.WaitGroup
	for h := 1; h < min(n, w.size()); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case w.tokens <- struct{}{}:
			case <-drained:
				return
			}
			work()
			w.release()
		}()
	}
	work()
	close(drained)
	w.release()
	wg.Wait()
	w.acquire()
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

// Outcome is one finished table of a RunTables run.
type Outcome struct {
	Table  Table
	Result *Result // nil when Err is set
	Err    error
	// Took is the table's own run time, from its start to its result.
	Took time.Duration
}

// RunTables runs tables on one pool of cfg.Parallel tokens (GOMAXPROCS
// when 0) and hands each outcome to emit, on the calling goroutine, in
// the order given. Tables are started in that order, each on a token of
// its own, so a table starts as soon as the ones before it leave a core
// free. The first error emit returns stops the run: no further table
// starts, and RunTables returns that error once the running ones end.
func RunTables(cfg Config, tables []Table, emit func(Outcome) error) error {
	w := newWorkers(cfg.Parallel)
	cfg.workers = w
	outs := make([]Outcome, len(tables))
	ready := make([]chan struct{}, len(tables))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, t := range tables {
			select {
			case w.tokens <- struct{}{}:
			case <-stop:
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				res, err := t.Run(cfg)
				outs[i] = Outcome{Table: t, Result: res, Err: err, Took: time.Since(start)}
				w.release()
				close(ready[i])
			}()
		}
	}()
	var err error
	for i := range tables {
		<-ready[i]
		if err = emit(outs[i]); err != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	return err
}
