package sim

import (
	"container/heap"
	"testing"
	"time"
)

// xorshift64 is a tiny deterministic generator for benchmark timestamp
// draws; using it instead of rng.Source keeps the benchmarks free of
// dependencies and of measurement noise from the generator itself.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// refQueue is the reference the scheduler benchmarks time beside the
// Scheduler: ladder_test.go's container/heap over the same (time, seq)
// keys, pushed and popped through heap.Fix so that it allocates nothing.
type refQueue struct {
	h   modelHeap
	now time.Duration
	seq uint64
}

func (q *refQueue) after(d time.Duration) {
	q.seq++
	q.h = append(q.h, modelEvent{at: q.now + d, seq: q.seq})
	heap.Fix(&q.h, len(q.h)-1)
}

// step fires the earliest event: it advances the clock and calls fn.
func (q *refQueue) step(fn func()) {
	n := len(q.h) - 1
	q.h[0], q.h[n] = q.h[n], q.h[0]
	q.now, q.h = q.h[n].at, q.h[:n]
	if n > 0 {
		heap.Fix(&q.h, 0)
	}
	fn()
}

// blocks runs b.N iterations in blocks of size: each block on the
// Scheduler with the timer running (sched), then the same block on the
// reference with it stopped (ref), so both see the same phase of the
// host. It reports how many times faster the Scheduler ran as heap/sched,
// and fails the benchmark below floor once b.N spans ten blocks.
func blocks(b *testing.B, size int, floor float64, sched, ref func(n int)) {
	var schedT, refT time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += size {
		n := min(size, b.N-done)
		start := time.Now()
		sched(n)
		schedT += time.Since(start)
		b.StopTimer()
		start = time.Now()
		ref(n)
		refT += time.Since(start)
		b.StartTimer()
	}
	b.StopTimer()
	speedup := float64(refT) / float64(schedT)
	b.ReportMetric(speedup, "heap/sched")
	if b.N >= 10*size && speedup < floor {
		b.Fatalf("the scheduler is %.2f× the reference heap, below the %.1f× floor", speedup, floor)
	}
}

// BenchmarkSchedulerChurn is the classic hold model: a steady-state
// population of pending events where every fired event schedules a
// replacement a short, pseudorandom delay ahead — the shape of the
// per-hop delivery chains that dominate the experiment workloads. One
// iteration is one fire plus one schedule (ns/op, allocs/op). The same
// draws run on refQueue; heap/sched is the ratio `make micro-bench`
// gates, with allocs/op at 0, and the benchmark fails below churnFloor.
func BenchmarkSchedulerChurn(b *testing.B) {
	s, ref := NewScheduler(), &refQueue{}
	const pending = 4096
	rnd, refRnd := xorshift64(0x9E3779B97F4A7C15), xorshift64(0x9E3779B97F4A7C15)
	delay := func(x *xorshift64) time.Duration {
		// 0–16ms, the per-hop latency scale.
		return time.Duration(x.next() & (uint64(16*time.Millisecond) - 1))
	}
	var fired uint64
	fn := func() { fired++ }
	for i := 0; i < pending; i++ {
		s.After(delay(&rnd), fn)
		ref.after(delay(&refRnd))
	}
	blocks(b, 4096, churnFloor, func(n int) {
		for i := 0; i < n; i++ {
			s.Step()
			s.After(delay(&rnd), fn)
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			ref.step(fn)
			ref.after(delay(&refRnd))
		}
	})
	if s.Now() != ref.now {
		b.Fatalf("the scheduler stands at %v, the reference heap at %v", s.Now(), ref.now)
	}
}

// BenchmarkSchedulerSameTickBurst measures batched same-tick delivery:
// every iteration schedules a burst of events at one timestamp — a
// splitter fan-out, a broadcast round — and drains it. The same bursts
// run on refQueue; heap/sched is gated as for BenchmarkSchedulerChurn,
// against burstFloor.
func BenchmarkSchedulerSameTickBurst(b *testing.B) {
	s, ref := NewScheduler(), &refQueue{}
	const burst = 64
	var fired uint64
	fn := func() { fired++ }
	blocks(b, 64, burstFloor, func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < burst; j++ {
				s.After(time.Millisecond, fn)
			}
			s.Run()
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < burst; j++ {
				ref.after(time.Millisecond)
			}
			for len(ref.h) > 0 {
				ref.step(fn)
			}
		}
	})
	if s.Now() != ref.now {
		b.Fatalf("the scheduler stands at %v, the reference heap at %v", s.Now(), ref.now)
	}
}

// churnFloor and burstFloor are the least speedups over the reference
// heap BenchmarkSchedulerChurn and BenchmarkSchedulerSameTickBurst accept
// (eight runs on a shared 2-vCPU Xeon VM: 2.19–2.41× and 2.28–2.49×,
// while their ns/op spread over 88–138 and 1699–2267).
const (
	churnFloor = 1.8
	burstFloor = 1.8
)
