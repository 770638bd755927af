// Package metrics is the live observability layer of the simulator: a
// registry of named counters, gauges, and histograms with network-wide
// and per-node scopes, sampled on the discrete-event clock into
// in-memory time series and exported in Prometheus text exposition or
// JSON.
//
// The paper's central empirical claim is about *load* — how evenly Pool
// spreads storage and message traffic compared with DIM (§5) — so the
// package also ships the load-balance analytics (Gini coefficient,
// coefficient of variation, top-k hotspot tables) the experiment runners
// and the poolmon CLI derive from per-node vectors.
//
// A nil *Registry is the disabled registry: every constructor returns a
// nil metric and every metric method is a guarded no-op, so instrumented
// hot paths (network.Transmit in particular) pay only a nil pointer
// compare when metrics are off. Instrumentation sites that would compute
// values (label formatting and the like) must keep that work behind the
// nil handle, exactly like the trace package's disabled tracer.
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

// Counter is a monotonically increasing counter. The nil Counter is
// disabled: Inc and Add are no-ops, Value is 0.
type Counter struct {
	v  uint64
	fn func() float64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count. Function-backed counters evaluate
// their callback.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return float64(c.v)
}

// Gauge is an instantaneous value. The nil Gauge is disabled.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add shifts the value by d (negative d decreases it).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value returns the current value. Function-backed gauges evaluate
// their callback.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Histogram records a distribution of integer observations (hop counts,
// fan-out sizes, millisecond latencies) with exact quantiles, backed by
// stats.IntHistogram. The nil Histogram is disabled.
type Histogram struct {
	h *stats.IntHistogram
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.h.Add(v)
}

// Hist returns the underlying histogram (nil on the disabled Histogram).
func (h *Histogram) Hist() *stats.IntHistogram {
	if h == nil {
		return nil
	}
	return h.h
}

// CounterVec is a counter family split by one label over a fixed value
// set declared at registration — per-node counters use the label "node"
// with one value per node id. Cells are addressed by dense index, so the
// hot path is a bounds-checked slice increment; function-backed vecs
// evaluate fn(i) per cell at read time instead, and Inc and Add leave
// them alone. The nil CounterVec is disabled.
type CounterVec struct {
	label  string
	values []string
	v      []uint64
	fn     func(i int) uint64
}

// Inc adds one to cell i. Out-of-range indexes are ignored.
func (c *CounterVec) Inc(i int) {
	if c == nil || i < 0 || i >= len(c.v) {
		return
	}
	c.v[i]++
}

// Add adds n to cell i. Out-of-range indexes are ignored.
func (c *CounterVec) Add(i int, n uint64) {
	if c == nil || i < 0 || i >= len(c.v) {
		return
	}
	c.v[i] += n
}

// Value returns cell i (0 when disabled or out of range).
func (c *CounterVec) Value(i int) uint64 {
	if c == nil || i < 0 || i >= len(c.values) {
		return 0
	}
	if c.fn != nil {
		return c.fn(i)
	}
	return c.v[i]
}

// Values returns a copy of all cells in label order (nil when disabled).
func (c *CounterVec) Values() []float64 {
	if c == nil {
		return nil
	}
	out := make([]float64, len(c.values))
	for i := range out {
		out[i] = float64(c.Value(i))
	}
	return out
}

// Sum returns the total across all cells.
func (c *CounterVec) Sum() float64 {
	if c == nil {
		return 0
	}
	var t float64
	for i := range c.values {
		t += float64(c.Value(i))
	}
	return t
}

// GaugeVec is a gauge family split by one label; function-backed vecs
// evaluate fn(i) per cell at read time, so maintaining them costs the
// instrumented code nothing. The nil GaugeVec is disabled.
type GaugeVec struct {
	label  string
	values []string
	v      []float64
	fn     func(i int) float64
}

// Set replaces cell i. Out-of-range indexes are ignored.
func (g *GaugeVec) Set(i int, v float64) {
	if g == nil || i < 0 || i >= len(g.v) {
		return
	}
	g.v[i] = v
}

// Add shifts cell i by d. Out-of-range indexes are ignored.
func (g *GaugeVec) Add(i int, d float64) {
	if g == nil || i < 0 || i >= len(g.v) {
		return
	}
	g.v[i] += d
}

// Value returns cell i (0 when disabled or out of range).
func (g *GaugeVec) Value(i int) float64 {
	if g == nil || i < 0 || i >= len(g.values) {
		return 0
	}
	if g.fn != nil {
		return g.fn(i)
	}
	return g.v[i]
}

// Values returns a copy of all cells in label order (nil when disabled).
func (g *GaugeVec) Values() []float64 {
	if g == nil {
		return nil
	}
	out := make([]float64, len(g.values))
	for i := range out {
		out[i] = g.Value(i)
	}
	return out
}

// Sum returns the total across all cells.
func (g *GaugeVec) Sum() float64 {
	if g == nil {
		return 0
	}
	var t float64
	for i := range g.values {
		t += g.Value(i)
	}
	return t
}

// NodeLabels returns the label values "0".."n-1" for per-node vectors.
func NodeLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

// entry is one registered metric family, in registration order.
type entry struct {
	name, help string
	kind       Kind

	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec

	series []Sample
}

// scalar reduces the family to one number for time-series sampling:
// counters and gauges sample their value, vecs their sum, histograms
// their observation count.
func (e *entry) scalar() float64 {
	switch {
	case e.counter != nil:
		return e.counter.Value()
	case e.gauge != nil:
		return e.gauge.Value()
	case e.counterVec != nil:
		return e.counterVec.Sum()
	case e.gaugeVec != nil:
		return e.gaugeVec.Sum()
	case e.hist != nil:
		return float64(e.hist.h.Total())
	}
	return 0
}

// Registry holds named metric families in registration order. The nil
// Registry is the disabled registry: every constructor returns a nil
// metric whose methods are no-ops. Construct enabled registries with
// New. A Registry is not goroutine-safe; snapshot it from the simulation
// goroutine and hand the immutable Snapshot to concurrent readers (the
// poolsim -debug-addr endpoint does exactly that).
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

// register adds a family, or returns the existing one when name and kind
// match (idempotent registration lets two subsystems share a family).
// Re-registering a name with a different kind is a programming error.
func (r *Registry) register(name, help string, kind Kind) (*entry, bool) {
	name = sanitizeName(name)
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %v, was %v", name, kind, e.kind))
		}
		return e, false
	}
	e := &entry{name: name, help: help, kind: kind}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e, true
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindCounter)
	if fresh {
		e.counter = &Counter{}
	}
	return e.counter
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot and sample time — for monotone quantities a subsystem already
// tracks (chaos crash counts, pool delegations).
func (r *Registry) CounterFunc(name, help string, fn func() float64) *Counter {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindCounter)
	if fresh {
		e.counter = &Counter{fn: fn}
	}
	return e.counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindGauge)
	if fresh {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// GaugeFunc registers a gauge read from fn at snapshot and sample time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindGauge)
	if fresh {
		e.gauge = &Gauge{fn: fn}
	}
	return e.gauge
}

// Histogram registers (or finds) a histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindHistogram)
	if fresh {
		e.hist = &Histogram{h: stats.NewIntHistogram()}
	}
	return e.hist
}

// HistogramOf registers an existing stats.IntHistogram under name, so a
// distribution a subsystem already maintains (chaos detection latency)
// is exported without double bookkeeping.
func (r *Registry) HistogramOf(name, help string, h *stats.IntHistogram) *Histogram {
	if r == nil || h == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindHistogram)
	if fresh {
		e.hist = &Histogram{h: h}
	}
	return e.hist
}

// CounterVec registers a counter family split by one label over the
// given value set.
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindCounter)
	if fresh {
		e.counterVec = &CounterVec{label: sanitizeName(label), values: values, v: make([]uint64, len(values))}
	}
	return e.counterVec
}

// CounterVecFunc registers a counter family split by one label whose
// cells are read from fn(i) at snapshot and sample time.
func (r *Registry) CounterVecFunc(name, help, label string, values []string, fn func(i int) uint64) *CounterVec {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindCounter)
	if fresh {
		e.counterVec = &CounterVec{label: sanitizeName(label), values: values, fn: fn}
	}
	return e.counterVec
}

// NodeCounter registers a per-node counter family (label "node", one
// cell per node id).
func (r *Registry) NodeCounter(name, help string, n int) *CounterVec {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help, "node", NodeLabels(n))
}

// GaugeVec registers a gauge family split by one label.
func (r *Registry) GaugeVec(name, help, label string, values []string) *GaugeVec {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindGauge)
	if fresh {
		e.gaugeVec = &GaugeVec{label: sanitizeName(label), values: values, v: make([]float64, len(values))}
	}
	return e.gaugeVec
}

// NodeGaugeFunc registers a per-node gauge family whose cells are read
// from fn(node) at snapshot and sample time — per-node state the
// subsystem already maintains (stored events, radio energy) is exported
// with zero hot-path cost.
func (r *Registry) NodeGaugeFunc(name, help string, n int, fn func(node int) float64) *GaugeVec {
	if r == nil {
		return nil
	}
	e, fresh := r.register(name, help, KindGauge)
	if fresh {
		e.gaugeVec = &GaugeVec{label: "node", values: NodeLabels(n), fn: fn}
	}
	return e.gaugeVec
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
	if !ok {
		return nil
	}
	switch {
	case e.counterVec != nil:
		return e.counterVec.Values()
	case e.gaugeVec != nil:
		return e.gaugeVec.Values()
	}
	return nil
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
