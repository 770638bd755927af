// Package load is the sustained-traffic harness: an open-loop workload
// driver that subjects a DCS deployment to Poisson (or deterministic, or
// closed-loop) arrivals of Zipf-skewed queries and inserts, measures
// per-class latency on the virtual clock, tracks SLO compliance per
// window, and applies admission control at the serving stations when
// offered load exceeds capacity.
//
// The batch experiment tables answer "how many messages does a query
// cost?"; this package answers the service questions those tables cannot
// see — where the throughput knee sits, how tail latency grows past
// saturation, and what shedding or batching buys back. Everything runs
// on internal/sim's virtual clock, so a seeded run is reproducible to
// the tick regardless of host speed.
package load

import (
	"fmt"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/stats"
)

// Class is the operation class of one request.
type Class int

// Operation classes.
const (
	// PointQuery is an exact lookup: a degenerate range on every
	// attribute.
	PointQuery Class = iota
	// RangeQuery is a multi-dimensional range query.
	RangeQuery
	// Insert stores a new event.
	Insert

	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case PointQuery:
		return "point"
	case RangeQuery:
		return "range"
	case Insert:
		return "insert"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists the operation classes in report order.
func Classes() []Class { return []Class{PointQuery, RangeQuery, Insert} }

// Op is one generated operation.
type Op struct {
	// Class selects which of the payload fields is meaningful.
	Class Class
	// Node is the sink issuing a query, or the sensor detecting an
	// inserted event.
	Node int
	// Event is the inserted event (Insert only).
	Event event.Event
	// Query is the issued query (PointQuery and RangeQuery).
	Query event.Query
}

// Mix is the class mix of the offered traffic. The weights are relative;
// they need not sum to 1.
type Mix struct {
	Point  float64
	Range  float64
	Insert float64
}

// DefaultMix is a read-mostly service mix: 60% point lookups, 30% range
// scans, 10% inserts.
var DefaultMix = Mix{Point: 0.6, Range: 0.3, Insert: 0.1}

// Validate rejects degenerate mixes.
func (m Mix) Validate() error {
	if m.Point < 0 || m.Range < 0 || m.Insert < 0 {
		return fmt.Errorf("load: negative mix weight %+v", m)
	}
	if m.Point+m.Range+m.Insert <= 0 {
		return fmt.Errorf("load: mix has no weight")
	}
	return nil
}

// SLO is the latency objective evaluated per window over the query
// classes (point and range; inserts are fire-and-forget).
type SLO struct {
	// Window is the evaluation granularity on the virtual clock.
	Window time.Duration
	// P99 is the target 99th-percentile latency per window.
	P99 time.Duration
}

// DefaultSLO evaluates p99 < 500ms over 2-second windows.
var DefaultSLO = SLO{Window: 2 * time.Second, P99: 500 * time.Millisecond}

// ClassStats aggregates one class's outcomes over a run.
type ClassStats struct {
	// Offered counts generated operations of this class.
	Offered uint64
	// Served counts operations that completed normally.
	Served uint64
	// Shed counts operations rejected by admission control.
	Shed uint64
	// Degraded counts operations served through a coalesced batch.
	Degraded uint64
	// Latency holds the completion latencies in milliseconds of served
	// and degraded operations.
	Latency *stats.IntHistogram
}

// Report is the outcome of one load run.
type Report struct {
	// Target names the backend under load.
	Target string
	// Mode describes the arrival regime ("open/poisson", "closed", …).
	Mode string
	// OfferedRate is the configured open-loop rate in ops/sec (0 for
	// closed loop).
	OfferedRate float64
	// Duration is the offered-traffic horizon on the virtual clock.
	Duration time.Duration
	// Offered, Served, Shed, Degraded, Abandoned count operations over
	// all classes. Abandoned operations were still queued when the run's
	// drain deadline passed — the signature of unbounded queue growth.
	Offered, Served, Shed, Degraded, Abandoned uint64
	// ServedInHorizon counts completions inside the offered-traffic
	// horizon (excluding the drain). Past saturation this flattens at
	// the system's capacity while Served keeps counting queue drainage.
	ServedInHorizon uint64
	// PerClass breaks the counts and latencies down by class.
	PerClass [numClasses]ClassStats
	// SLOWindows is the number of evaluation windows that saw at least
	// one query completion; SLOOK counts those meeting the p99 target.
	SLOWindows, SLOOK int
	// MaxDepth is the deepest station queue observed.
	MaxDepth int
	// Engagements counts admission-controller engage transitions summed
	// over stations.
	Engagements int
}

// ServedPerSec is the delivered throughput: completions inside the
// offered horizon per second. Past the knee this flattens at capacity.
func (r *Report) ServedPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.ServedInHorizon) / r.Duration.Seconds()
}

// ShedPct is the percentage of offered operations rejected.
func (r *Report) ShedPct() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered) * 100
}

// SLOPct is the percentage of evaluation windows meeting the target
// (100 when no window saw traffic).
func (r *Report) SLOPct() float64 {
	if r.SLOWindows == 0 {
		return 100
	}
	return float64(r.SLOOK) / float64(r.SLOWindows) * 100
}

// QueryLatency merges the point- and range-class latency histograms:
// the distribution the SLO is evaluated over.
func (r *Report) QueryLatency() *stats.IntHistogram {
	h := stats.NewIntHistogram()
	h.Merge(r.PerClass[PointQuery].Latency)
	h.Merge(r.PerClass[RangeQuery].Latency)
	return h
}
