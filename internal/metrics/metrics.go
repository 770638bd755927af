// Package metrics is the live observability layer of the simulator: a
// registry of named counter, gauge and histogram families with
// network-wide and per-node scopes, sampled on the discrete-event clock
// into in-memory time series and exported in Prometheus text exposition
// or JSON.
//
// The paper's central empirical claim is about *load* — how evenly Pool
// spreads storage and message traffic compared with DIM (§5) — so the
// package also ships the load-balance analytics (Gini coefficient,
// coefficient of variation, top-k hotspot tables) the experiment runners
// and the poolmon CLI derive from per-node vectors.
//
// Every family is a read-time view of a fact its owner keeps anyway — a
// plain counter, a per-node slice, a stats.IntHistogram — and the
// package has no write side: nothing is incremented on its behalf. Each
// fact is counted in one place, and a metered component does exactly
// the same work per event as an unmetered one. A nil *Registry is the
// disabled registry: registering on it does nothing.
package metrics

import (
	"fmt"
	"strconv"
	"time"

	"pooldcs/internal/stats"
)

// Kind classifies a metric family for the exposition formats.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous value that may go up or down.
	KindGauge
	// KindHistogram is a distribution of integer observations, exported
	// as a Prometheus summary (quantiles + sum + count).
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeLabels returns the label values "0".."n-1" for per-node vectors.
func NodeLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

// entry is one registered metric family, in registration order: a
// scalar view, a vec view (one label, its values and a cell view), or a
// histogram.
type entry struct {
	name, help string
	kind       Kind

	fn     func() float64
	label  string
	values []string
	cell   func(i int) float64
	hist   *stats.IntHistogram

	series []Sample
}

// scalar reduces the family to one number for time-series sampling:
// scalar views sample their value, vecs their sum, histograms their
// observation count.
func (e *entry) scalar() float64 {
	switch {
	case e.fn != nil:
		return e.fn()
	case e.cell != nil:
		var t float64
		for i := range e.values {
			t += e.cell(i)
		}
		return t
	case e.hist != nil:
		return float64(e.hist.Total())
	}
	return 0
}

// Registry holds named metric families in registration order. Every
// family is a view: it reads, at snapshot and sample time, a counter,
// slice or histogram its owner keeps anyway, so registering a family
// changes nothing about what the owner does per event. The nil Registry
// is the disabled registry: registration on it is a no-op. Construct
// enabled registries with New. A Registry is not goroutine-safe;
// snapshot it on the goroutine that owns the viewed state and hand the
// immutable Snapshot to concurrent readers (the poolsim -debug-addr
// endpoint does exactly that).
type Registry struct {
	entries []*entry
	byName  map[string]*entry
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// register adds a family. A name registered twice is a programming
// error: the second view would be silently dropped and its owner's facts
// under-reported.
func (r *Registry) register(e *entry) {
	e.name = sanitizeName(e.name)
	if _, ok := r.byName[e.name]; ok {
		panic(fmt.Sprintf("metrics: %q registered twice", e.name))
	}
	r.entries = append(r.entries, e)
	r.byName[e.name] = e
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot and sample time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r != nil {
		r.register(&entry{name: name, help: help, kind: KindCounter, fn: fn})
	}
}

// GaugeFunc registers a gauge read from fn at snapshot and sample time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r != nil {
		r.register(&entry{name: name, help: help, kind: KindGauge, fn: fn})
	}
}

// HistogramOf registers a stats.IntHistogram its owner maintains under
// name. A nil histogram registers nothing.
func (r *Registry) HistogramOf(name, help string, h *stats.IntHistogram) {
	if r != nil && h != nil {
		r.register(&entry{name: name, help: help, kind: KindHistogram, hist: h})
	}
}

// CounterVecFunc registers a counter family split by one label whose
// cells are read from fn(i) at snapshot and sample time.
func (r *Registry) CounterVecFunc(name, help, label string, values []string, fn func(i int) uint64) {
	if r != nil {
		r.register(&entry{name: name, help: help, kind: KindCounter, label: sanitizeName(label), values: values,
			cell: func(i int) float64 { return float64(fn(i)) }})
	}
}

// NodeGaugeFunc registers a per-node gauge family (label "node", one
// cell per node id) whose cells are read from fn(node) at snapshot and
// sample time.
func (r *Registry) NodeGaugeFunc(name, help string, n int, fn func(node int) float64) {
	if r != nil {
		r.register(&entry{name: name, help: help, kind: KindGauge, label: "node", values: NodeLabels(n), cell: fn})
	}
}

// Names returns the registered family names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.name
	}
	return out
}

// NodeValues returns the per-cell values of the named vec family in
// label order, or nil when the name is unknown or not a vec. The
// load-balance analytics feed on this.
func (r *Registry) NodeValues(name string) []float64 {
	if r == nil {
		return nil
	}
	e, ok := r.byName[name]
	if !ok || e.cell == nil {
		return nil
	}
	out := make([]float64, len(e.values))
	for i := range out {
		out[i] = e.cell(i)
	}
	return out
}

// Value returns the named family's scalar reduction (counter/gauge
// value, vec sum, histogram count), or 0 when unknown.
func (r *Registry) Value(name string) float64 {
	if r == nil {
		return 0
	}
	e, ok := r.byName[name]
	if !ok {
		return 0
	}
	return e.scalar()
}

// sanitizeName maps an arbitrary string onto the Prometheus metric-name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*, replacing invalid bytes with '_'.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	valid := func(i int, c byte) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			return true
		case c >= '0' && c <= '9':
			return i > 0
		}
		return false
	}
	clean := true
	for i := 0; i < len(s); i++ {
		if !valid(i, s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	b := []byte(s)
	for i := range b {
		if !valid(i, b[i]) {
			b[i] = '_'
		}
	}
	return string(b)
}

// Sample is one point of a sampled time series, stamped with the virtual
// time it was taken at.
type Sample struct {
	T time.Duration `json:"t"`
	V float64       `json:"v"`
}
