package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/stats"
)

// values maps a metric name to its measured value. Units live in
// spec.go, beside the names.
type values map[string]float64

// workloadDef is one of the six benchmark workloads. batch builds a fresh
// deployment for batch b of the run's seed (timed as set-up), runs the
// batch's pinned operation list (timed), and checks every answer
// against the oracle (untimed). Batches repeat, each on new inputs
// derived from (seed, b), until the run's measuring time is used up.
type workloadDef struct {
	name string
	why  string
	// pin is the number of leading batches whose modelled numbers are
	// reported. Every run completes at least pin batches, so the
	// modelled metrics of a seed do not depend on how fast the host is.
	pin int
	// tracedOnce limits the traced pass to one batch: tables_all has no
	// spans inside its subprocess to collect, and its traced run spends
	// the time on running every table singly instead.
	tracedOnce bool
	batch      func(r *run, b int)
	// poolMsgsPerQuery, when set, replaces the default derivation of
	// pool_msgs_per_query: query plus reply transmissions per query over
	// the pinned batches.
	poolMsgsPerQuery func(r *run) float64
	// layers fills the per-layer metrics from an untraced pass u and a
	// traced pass t over the same inputs, running the workload's
	// isolated replays.
	layers func(u, t *run, m values)
}

// run accumulates the measurements of one pass over a workload.
type run struct {
	seed  int64
	scale float64
	sp    *spans // nil on the untraced pass

	b int // current batch

	setupS, wallS, cpuS []float64 // per batch
	batchWall, batchCPU float64   // of the open batch
	ops                 int       // operations inside timed phases, all batches
	mallocs, allocBytes uint64    // inside timed phases, all batches
	gcCycles            uint32
	attempted, failed   int

	// sum holds modelled counters, which accumulate over the pinned
	// batches only; samples holds host measurements of every batch.
	sum     map[string]float64
	samples map[string][]float64
	pin     int

	// err is the first failure of the environment (poolsim would not
	// build or run); it ends the run without a result.
	err error

	childRSSMB []float64 // tables_all: ru_maxrss of each child
	stdoutSum  [32]byte  // tables_all: SHA-256 of the first run's stdout
}

func newRun(pin int, seed int64, scale float64, sp *spans) *run {
	return &run{seed: seed, scale: scale, sp: sp, pin: pin,
		sum: make(map[string]float64), samples: make(map[string][]float64)}
}

// pinned reports whether the current batch feeds the modelled metrics.
func (r *run) pinned() bool { return r.b < r.pin }

// count adds to a modelled counter on pinned batches.
func (r *run) count(name string, v float64) {
	if r.pinned() {
		r.sum[name] += v
	}
}

// maxOf keeps the largest value seen on pinned batches.
func (r *run) maxOf(name string, v float64) {
	if r.pinned() && v > r.sum[name] {
		r.sum[name] = v
	}
}

// sample records one host measurement.
func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// ratio divides two modelled counters; 0 when the divisor is 0.
func (r *run) ratio(num, den string) float64 {
	if r.sum[den] == 0 {
		return 0
	}
	return r.sum[num] / r.sum[den]
}

// scaled shrinks a pinned count for the quick test runs, never to 0.
func (r *run) scaled(n int) int {
	s := int(math.Round(float64(n) * r.scale))
	if s < 1 {
		s = 1
	}
	return s
}

// cpuNow returns the process's CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup times fresh builds of the workload's deployment: reps of
// them, so that a run holds enough samples for a steady figure. The
// last one built is the one the batch uses. The collector runs first,
// as before a segment: a build takes milliseconds, and the previous
// batch's garbage should not be collected beside it.
func (r *run) timeSetup(reps int, f func()) {
	for i := 0; i < reps; i++ {
		runtime.GC()
		id := r.sp.begin(r.sp.kind("bench", "setup"), r.b)
		start := time.Now()
		f()
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		r.sp.end(id)
	}
}

// segment times one stretch of the batch's pinned operation list; a
// batch is one or more segments with untimed answer checking between
// them. The collector runs first so that garbage from set-up and
// checking is not charged to the segment.
func (r *run) segment(ops int, f func()) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuNow()
	id := r.sp.begin(r.sp.kind("bench", "segment"), r.b)
	start := time.Now()
	f()
	wall := time.Since(start)
	r.sp.end(id)
	cpu := cpuNow() - cpu0
	runtime.ReadMemStats(&after)
	r.batchWall += wall.Seconds()
	r.batchCPU += cpu.Seconds()
	r.ops += ops
	r.mallocs += after.Mallocs - before.Mallocs
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
	r.gcCycles += after.NumGC - before.NumGC
}

// endBatch closes the batch's timed phase.
func (r *run) endBatch() {
	r.wallS = append(r.wallS, r.batchWall)
	r.cpuS = append(r.cpuS, r.batchCPU)
	r.batchWall, r.batchCPU = 0, 0
}

// timeRun times a batch whose pinned operation list is one segment.
func (r *run) timeRun(ops int, f func()) {
	r.segment(ops, f)
	r.endBatch()
}

// timed is the measuring time used so far.
func (r *run) timed() float64 {
	t := 0.0
	for _, w := range r.wallS {
		t += w
	}
	return t
}

// attempt counts n operations as attempted.
func (r *run) attempt(n int) {
	r.attempted += n
	r.count("attempted", float64(n))
}

// fail counts one failed operation and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.count("failed", 1)
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: batch %d: FAILED: %s\n", r.b, fmt.Sprintf(format, args...))
	}
}

// overreport counts an answer given under injected faults that missed
// events the store still held and yet claimed to be complete. That is
// the program's completeness accounting at fault, not the run: it
// shows in failed_ops_share and recall_pct and on standard error, and
// leaves the result line's verdict alone, because the driver wants
// workloads on which no operation fails and a fault plan meets this on
// one seed in ten (README.md, "Correctness").
func (r *run) overreport(format string, args ...any) {
	r.count("overreported", 1)
	fmt.Fprintf(os.Stderr, "bench: batch %d: OVER-REPORTED: %s\n", r.b, fmt.Sprintf(format, args...))
}

// verify checks one answer against the oracle, counts it as failed if
// the oracle says so, and returns the recall.
func (r *run) verify(or *oracle, what string, q event.Query, got []event.Event, launchedAt, doneAt int, complete, full bool) (verdict, float64) {
	v, recall := or.check(q, got, launchedAt, doneAt, complete, full)
	if v.failed() {
		r.fail("%s %v: %v (%d events)", what, q, v, len(got))
	}
	return v, recall
}

// execute runs batches until seconds of measuring time are used, and
// at least the pinned ones.
func execute(w *workloadDef, seed int64, scale, seconds float64, sp *spans) (*run, error) {
	r := newRun(w.pin, seed, scale, sp)
	if sp != nil && w.tracedOnce {
		r.pin, seconds = 1, 0
	}
	for r.b = 0; r.err == nil && (r.b < r.pin || r.timed() < seconds); r.b++ {
		w.batch(r, r.b)
	}
	return r, r.err
}

// median is the repo's nearest-rank 50th percentile.
func median(v []float64) float64 { return stats.Percentile(v, 50) }

// steady is the figure a run reports for a host time it sampled once
// per batch: the lower quartile. What a shared machine adds to a time
// it only ever adds, in stretches of a few seconds, so a run's faster
// batches are nearer the code's own cost than its median batch. Over
// ten seeds the lower quartile spread a third less than the median on
// the reference VM (README.md has the numbers).
func steady(v []float64) float64 { return stats.Percentile(v, 25) }

// must panics on an error that only a bug in the bench can cause: a
// constructor given valid arguments, an insert on a fault-free radio.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(w *workloadDef, r *run) values {
	rss := peakRSSMB()
	if len(r.childRSSMB) > 0 {
		rss = median(r.childRSSMB)
	}
	msgs := r.ratio("pool.qmsgs", "pool.queries")
	if w.poolMsgsPerQuery != nil {
		msgs = w.poolMsgsPerQuery(r)
	}
	return values{
		"setup_s":             steady(r.setupS),
		"wall_s":              steady(r.wallS),
		"cpu_s":               steady(r.cpuS),
		"peak_rss_mb":         rss,
		"pool_msgs_per_query": msgs,
	}
}
