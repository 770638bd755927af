package load

import (
	"fmt"
	"sort"
	"time"

	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

// Mode selects the arrival regime.
type Mode int

// Arrival regimes.
const (
	// Open is the open-loop regime: arrivals follow the configured
	// process regardless of how the system is coping. Saturation shows
	// up as queue growth and unbounded tail latency.
	Open Mode = iota
	// Closed is the closed-loop regime: a fixed population of clients,
	// each issuing its next operation only after the previous one
	// completes (plus think time). The system is never offered more than
	// Clients concurrent operations, which hides saturation — the
	// classic reason closed-loop benchmarks understate tail latency.
	Closed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Open:
		return "open"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ArrivalKind selects the open-loop inter-arrival distribution.
type ArrivalKind int

// Open-loop arrival processes.
const (
	// Poisson draws exponential gaps (memoryless arrivals).
	Poisson ArrivalKind = iota
	// Uniform spaces arrivals deterministically.
	Uniform
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// DefaultDrain is the extra virtual time a run waits after the offered
// horizon for in-flight operations to complete.
const DefaultDrain = 30 * time.Second

// Config parameterizes one load run.
type Config struct {
	// Seed drives every random draw; identical configs replay exactly.
	Seed int64
	// Mode selects open- or closed-loop arrivals.
	Mode Mode
	// Arrival selects the open-loop inter-arrival process.
	Arrival ArrivalKind
	// Rate is the open-loop offered rate in ops/sec. Zero offers
	// nothing (a valid, empty run).
	Rate float64
	// Clients is the closed-loop population size. Each client is one
	// outstanding operation, so memory stays O(Clients) — populations in
	// the millions are just a large initial event heap.
	Clients int
	// Think is the closed-loop mean think time between a completion and
	// the client's next operation (exponentially distributed).
	Think time.Duration
	// Duration is the offered-traffic horizon on the virtual clock.
	Duration time.Duration
	// Drain is the extra virtual time in-flight operations get to
	// complete after the horizon (default DefaultDrain). Operations
	// still queued at the drain deadline are counted as Abandoned.
	Drain time.Duration
	// Dims is the event dimensionality of the deployment.
	Dims int
	// Mix is the class mix of the offered traffic (DefaultMix if zero).
	Mix Mix
	// Skew is the Zipf exponent of the query and event populations;
	// Bins the number of Zipf bins (defaults 0.8 over 64 bins).
	Skew float64
	Bins int
	// Admission configures the per-station admission controllers.
	Admission AdmissionConfig
	// SLO is the per-window latency objective (DefaultSLO if zero).
	SLO SLO
}

// withDefaults fills derived defaults.
func (c Config) withDefaults() Config {
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix
	}
	if c.Bins <= 0 {
		c.Bins = 64
	}
	if c.Skew == 0 {
		c.Skew = 0.8
	}
	if c.Drain <= 0 {
		c.Drain = DefaultDrain
	}
	if c.SLO == (SLO{}) {
		c.SLO = DefaultSLO
	}
	c.Admission = c.Admission.withDefaults()
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("load: duration must be > 0, got %v", c.Duration)
	}
	if c.Dims < 1 {
		return fmt.Errorf("load: dims must be ≥ 1, got %d", c.Dims)
	}
	if c.Mode == Closed && c.Clients < 1 {
		return fmt.Errorf("load: closed loop needs ≥ 1 client, got %d", c.Clients)
	}
	if c.Rate < 0 {
		return fmt.Errorf("load: rate must be ≥ 0, got %g", c.Rate)
	}
	if err := c.Mix.Validate(); err != nil && c.Mix != (Mix{}) {
		return err
	}
	if c.SLO.Window < 0 || c.SLO.P99 < 0 {
		return fmt.Errorf("load: negative SLO %+v", c.SLO)
	}
	return c.Admission.Validate()
}

// Engine drives one Target with the configured arrival stream and
// collects the Report. One Engine is one run; build a fresh one per
// sweep point.
type Engine struct {
	cfg    Config
	sched  *sim.Scheduler
	target Target
	nodes  int

	classSrc *rng.Source
	nodeSrc  *rng.Source
	thinkSrc *rng.Source
	qgen     *workload.Queries
	egen     *workload.Events
	arrivals workload.Arrivals

	ctrl     map[int]*Admission
	inflight int
	start    time.Duration // clock value when Run began
	rep      *Report
	windows  map[int64]*stats.IntHistogram

	// tracer, when non-nil (EnableAutopsy), runs every query under a span.
	tracer *trace.Tracer
}

// NewEngine builds a run over target, a deployment of nodes sensors.
func NewEngine(sched *sim.Scheduler, target Target, nodes int, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("load: deployment has no nodes")
	}
	for _, class := range Classes() {
		if weight(cfg.Mix, class) > 0 && !target.Supports(class) {
			return nil, fmt.Errorf("load: backend %s does not support %s operations", target.Name(), class)
		}
	}
	src := rng.New(cfg.Seed)
	e := &Engine{
		cfg:      cfg,
		sched:    sched,
		target:   target,
		nodes:    nodes,
		classSrc: src.Fork("classes"),
		nodeSrc:  src.Fork("nodes"),
		thinkSrc: src.Fork("think"),
		qgen:     workload.NewQueries(src.Fork("queries"), cfg.Dims),
		egen:     workload.NewZipfEvents(src.Fork("events"), cfg.Dims, cfg.Skew, cfg.Bins),
		ctrl:     make(map[int]*Admission),
		windows:  make(map[int64]*stats.IntHistogram),
		rep: &Report{
			Target:      target.Name(),
			OfferedRate: cfg.Rate,
			Duration:    cfg.Duration,
		},
	}
	switch cfg.Arrival {
	case Uniform:
		e.arrivals = workload.NewUniformArrivals(cfg.Rate)
	default:
		e.arrivals = workload.NewPoissonArrivals(src.Fork("arrivals"), cfg.Rate)
	}
	if cfg.Mode == Closed {
		e.rep.Mode = "closed"
		e.rep.OfferedRate = 0
	} else {
		e.rep.Mode = "open/" + cfg.Arrival.String()
	}
	for c := range e.rep.PerClass {
		e.rep.PerClass[c].Latency = stats.NewIntHistogram()
	}
	if b, ok := target.(Batcher); ok && cfg.Admission.BatchLimit > 0 {
		b.ConfigureBatch(cfg.Admission.BatchLimit, cfg.Admission.BatchWindow)
	}
	return e, nil
}

// EnableAutopsy attaches a causal tracer — typically a bounded ring
// from trace.NewRing, the always-on flight recorder: every query runs
// under its own span, and station queueing leaves wait/serve records, so
// attrib.Analyze over the ring splits each query's latency into phases.
// Call before Run; a nil tracer is a no-op.
func (e *Engine) EnableAutopsy(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	e.tracer = tr
	switch t := e.target.(type) {
	case *StationTarget:
		t.tracer = tr
	case *ActorTarget:
		t.eng.SetTracer(tr)
	}
}

// weight returns a class's mix weight.
func weight(m Mix, c Class) float64 {
	switch c {
	case PointQuery:
		return m.Point
	case RangeQuery:
		return m.Range
	default:
		return m.Insert
	}
}

// nextOp draws one operation from the configured populations.
func (e *Engine) nextOp() *Op {
	m := e.cfg.Mix
	w := e.classSrc.Float64() * (m.Point + m.Range + m.Insert)
	op := &Op{Node: e.nodeSrc.Intn(e.nodes)}
	switch {
	case w < m.Point:
		op.Class = PointQuery
		op.Query = e.qgen.ZipfPoint(e.cfg.Skew, e.cfg.Bins)
	case w < m.Point+m.Range:
		op.Class = RangeQuery
		op.Query = e.qgen.ZipfRange(e.cfg.Skew, e.cfg.Bins, workload.ExponentialSizes)
	default:
		op.Class = Insert
		op.Event = e.egen.Next()
	}
	return op
}

// offer submits one operation: through admission control for queries,
// straight to the target for inserts (sensor readings must land).
// done, when non-nil, fires after the operation completes or is shed —
// the closed-loop client hook.
func (e *Engine) offer(op *Op, done func()) error {
	e.rep.Offered++
	cs := &e.rep.PerClass[op.Class]
	cs.Offered++

	var span uint64
	if e.tracer != nil && op.Class != Insert {
		span = e.tracer.BeginAt(0, trace.OpQuery, op.Node, op.Class.String())
	}

	station := e.target.Station(op)
	decision := Admit
	if op.Class != Insert && e.cfg.Admission.Policy != AdmitAll {
		ctrl := e.ctrl[station]
		if ctrl == nil {
			ctrl = NewAdmission(e.cfg.Admission)
			e.ctrl[station] = ctrl
		}
		decision = ctrl.Decide(e.sched.Now(), e.target.Depth(station))
	}
	if decision == Batch {
		if _, ok := e.target.(Batcher); !ok {
			decision = Shed
		}
	}
	switch decision {
	case Shed:
		e.tracer.EndSpan(span)
		e.rep.Shed++
		cs.Shed++
		if done != nil {
			done()
		}
		return nil
	case Batch:
		e.rep.Degraded++
		cs.Degraded++
	}
	start := e.sched.Now()
	e.inflight++
	complete := func() {
		e.inflight--
		ms := int64((e.sched.Now() - start) / time.Millisecond)
		cs.Latency.Add(ms)
		e.rep.Served++
		if e.sched.Now() <= e.start+e.cfg.Duration {
			e.rep.ServedInHorizon++
		}
		cs.Served++
		e.tracer.EndSpan(span)
		if op.Class != Insert && e.cfg.SLO.Window > 0 {
			idx := int64((e.sched.Now() - e.start) / e.cfg.SLO.Window)
			h := e.windows[idx]
			if h == nil {
				h = stats.NewIntHistogram()
				e.windows[idx] = h
			}
			h.Add(ms)
		}
		if done != nil {
			done()
		}
	}
	if decision == Batch {
		return e.target.(Batcher).LaunchBatched(op, station, complete)
	}
	if span != 0 {
		e.tracer.PushSpan(span)
		defer e.tracer.PopSpan()
	}
	return e.target.Launch(op, station, complete)
}

// Run executes the configured arrival stream to the horizon, drains, and
// returns the report. The scheduler must be dedicated to this run (plus
// whatever background protocol timers the deployment schedules).
func (e *Engine) Run() (*Report, error) {
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	e.start = e.sched.Now()
	if e.cfg.Mode == Closed {
		e.startClosed(fail)
	} else {
		e.startOpen(fail)
	}
	deadline := e.start + e.cfg.Duration + e.cfg.Drain
	if err := e.sched.RunUntil(deadline, 0); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	e.rep.Abandoned = uint64(e.inflight)
	e.finishSLO()
	e.rep.MaxDepth = e.target.MaxDepth()
	for _, id := range e.stationIDs() {
		e.rep.Engagements += e.ctrl[id].Engagements()
	}
	return e.rep, nil
}

// startOpen schedules the self-perpetuating open-loop arrival chain.
func (e *Engine) startOpen(fail func(error)) {
	var arrive func()
	schedule := func() bool {
		gap := e.arrivals.Next()
		next := e.sched.Now() + gap
		if next > e.start+e.cfg.Duration {
			return false
		}
		// next ≥ now, so At cannot fail.
		_ = e.sched.At(next, arrive)
		return true
	}
	arrive = func() {
		if err := e.offer(e.nextOp(), nil); err != nil {
			fail(err)
			return
		}
		schedule()
	}
	schedule()
}

// startClosed launches the closed-loop client population. Each client
// issues, waits for completion, thinks, and repeats until the horizon.
func (e *Engine) startClosed(fail func(error)) {
	think := func() time.Duration {
		if e.cfg.Think <= 0 {
			return 0
		}
		return time.Duration(e.thinkSrc.Exponential(1) * float64(e.cfg.Think))
	}
	var loop func()
	loop = func() {
		if e.sched.Now() > e.start+e.cfg.Duration {
			return
		}
		if err := e.offer(e.nextOp(), func() {
			e.sched.After(think(), loop)
		}); err != nil {
			fail(err)
		}
	}
	for c := 0; c < e.cfg.Clients; c++ {
		// Stagger client starts over one think interval so the population
		// does not arrive as a single synchronized burst.
		e.sched.After(think(), loop)
	}
}

// finishSLO evaluates every window that saw query traffic.
func (e *Engine) finishSLO() {
	if e.cfg.SLO.Window <= 0 {
		return
	}
	target := int64(e.cfg.SLO.P99 / time.Millisecond)
	for _, h := range e.windows {
		e.rep.SLOWindows++
		if h.Quantile(99) <= target {
			e.rep.SLOOK++
		}
	}
}

// stationIDs returns the admission-controller station ids in sorted
// order, so aggregation is deterministic.
func (e *Engine) stationIDs() []int {
	ids := make([]int, 0, len(e.ctrl))
	for id := range e.ctrl {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
