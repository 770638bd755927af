// Package chaos injects deterministic, scheduled faults into a running
// universe: node crashes and recoveries, battery-depletion deaths, and
// transient regional loss bursts. A Plan is a timed fault script; an
// Engine executes it on the simulation scheduler, tearing each fault
// through every layer in order — routing first (so repair traffic
// detours around the corpse), then the radio, then each storage
// protocol's repair hook.
//
// The paper assumes reliable nodes; this package supplies the churn its
// robustness evaluation needs (experiment.Churn) and the substrate for
// fuzzing query resolution under arbitrary fault interleavings.
package chaos

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
)

// FaultKind selects what a Fault does.
type FaultKind int

// Fault kinds.
const (
	// Crash kills a node at every layer at time At.
	Crash FaultKind = iota + 1
	// Recover brings a crashed node back (unless its battery is dead).
	Recover
	// Burst opens a regional loss window: frames touching Region drop
	// with probability Rate for Duration.
	Burst
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Burst:
		return "burst"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one scheduled fault.
type Fault struct {
	// At is the virtual time the fault fires.
	At time.Duration
	// Kind selects the fault type.
	Kind FaultKind
	// Node is the target of a Crash or Recover.
	Node int
	// Region, Rate, and Duration parameterize a Burst.
	Region   geo.Rect
	Rate     float64
	Duration time.Duration
}

// Plan is a deterministic fault script: the same plan executed on the
// same universe always produces the same trajectory.
type Plan struct {
	Faults []Fault
}

// Crash appends a node crash at time at.
func (p *Plan) Crash(at time.Duration, node int) {
	p.Faults = append(p.Faults, Fault{At: at, Kind: Crash, Node: node})
}

// Recover appends a node recovery at time at.
func (p *Plan) Recover(at time.Duration, node int) {
	p.Faults = append(p.Faults, Fault{At: at, Kind: Recover, Node: node})
}

// Burst appends a regional loss burst at time at.
func (p *Plan) Burst(at time.Duration, region geo.Rect, rate float64, duration time.Duration) {
	p.Faults = append(p.Faults, Fault{At: at, Kind: Burst, Region: region, Rate: rate, Duration: duration})
}

// Validate checks the plan against a universe of n nodes.
func (p Plan) Validate(n int) error {
	crashed := 0
	for i, f := range p.Faults {
		if f.At < 0 {
			return fmt.Errorf("chaos: fault %d fires at negative time %v", i, f.At)
		}
		switch f.Kind {
		case Crash:
			if f.Node < 0 || f.Node >= n {
				return fmt.Errorf("chaos: fault %d crashes node %d, universe has %d", i, f.Node, n)
			}
			crashed++
		case Recover:
			if f.Node < 0 || f.Node >= n {
				return fmt.Errorf("chaos: fault %d recovers node %d, universe has %d", i, f.Node, n)
			}
		case Burst:
			if f.Rate < 0 || f.Rate > 1 {
				return fmt.Errorf("chaos: fault %d burst rate %v outside [0,1]", i, f.Rate)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("chaos: fault %d burst duration %v must be positive", i, f.Duration)
			}
		default:
			return fmt.Errorf("chaos: fault %d has unknown kind %v", i, f.Kind)
		}
	}
	if crashed >= n {
		return fmt.Errorf("chaos: plan crashes %d of %d nodes; at least one must survive", crashed, n)
	}
	return nil
}

// RandomChurn builds a plan that crashes a deterministic random fraction
// of the universe, spread uniformly over the horizon; each victim later
// recovers with probability recoverFrac. Kills are capped at n-2 so the
// network keeps at least a sender and a receiver.
func RandomChurn(src *rng.Source, n int, frac, recoverFrac float64, horizon time.Duration) Plan {
	kills := int(frac * float64(n))
	if kills > n-2 {
		kills = n - 2
	}
	var p Plan
	if kills <= 0 {
		return p
	}
	victims := src.Perm(n)[:kills]
	for _, v := range victims {
		at := time.Duration(src.Float64() * float64(horizon))
		p.Crash(at, v)
		if src.Bool(recoverFrac) {
			back := at + time.Duration(src.Float64()*float64(horizon-at))
			p.Recover(back, v)
		}
	}
	return p
}

// System is the storage-protocol view of a fault — the shared
// dcs.Degradable surface. pool.System, dim.System, ght.System, and
// node.Engine all implement it, so every backend (the actor engine
// included) registers with the chaos engine through this one path.
type System = dcs.Degradable

// FailureDetector is the engine's view of a failure-detection protocol
// (discovery.Protocol implements it). Fail silences the node's beacons;
// sometime later — after its neighbours' beacon timeouts expire — the
// detector fires the OnSuspect callback, and only then does the engine
// run protocol-level teardown. Detection latency is thus a measured
// property of the beacon exchange, not an engine parameter.
type FailureDetector interface {
	Fail(id int)
	Recover(id int)
	Suspect(id int) bool
	OnSuspect(fn func(id int))
}

// Engine executes faults against one universe: a scheduler, a network,
// the router over it, and the storage systems sharing them.
type Engine struct {
	sched   *sim.Scheduler
	net     *network.Network
	router  *gpsr.Router
	systems []System

	burstSrc  *rng.Source
	detector  FailureDetector
	onRecover func(id int)

	down []bool
	// crashedAt holds, per node, the virtual time of an undetected crash
	// (detectSentinel otherwise); the gap to the suspicion callback is the
	// measured detection latency.
	crashedAt  []time.Duration
	detectHist *stats.IntHistogram

	crashes, recoveries, bursts int
	errs                        []error
}

const detectSentinel = time.Duration(-1)

// EngineOption configures NewEngine.
type EngineOption interface {
	apply(*Engine)
}

type engineOption func(*Engine)

func (f engineOption) apply(e *Engine) { f(e) }

// WithMetrics registers the engine's live metrics on reg:
// function-backed counters over crashes, recoveries, bursts, and repair
// errors, a nodes-down gauge, and the detection-latency histogram shared
// with DetectionLatency — one distribution, two views. A nil registry
// attaches nothing.
func WithMetrics(reg *metrics.Registry) EngineOption {
	return engineOption(func(e *Engine) {
		if reg == nil {
			return
		}
		reg.CounterFunc("chaos_crashes_total", "node crashes executed",
			func() float64 { return float64(e.crashes) })
		reg.CounterFunc("chaos_recoveries_total", "node recoveries executed",
			func() float64 { return float64(e.recoveries) })
		reg.CounterFunc("chaos_bursts_total", "regional loss bursts opened",
			func() float64 { return float64(e.bursts) })
		reg.CounterFunc("chaos_repair_errors_total", "storage repairs that found no survivor",
			func() float64 { return float64(len(e.errs)) })
		reg.GaugeFunc("chaos_nodes_down", "nodes the engine currently holds down", func() float64 {
			var down float64
			for _, d := range e.down {
				if d {
					down++
				}
			}
			return down
		})
		reg.HistogramOf("chaos_detection_latency_ms", "crash-to-suspicion gap through the failure detector",
			e.detectHist)
	})
}

// WithRecoveryHook invokes fn after every completed node recovery (all
// layers back up). Anti-entropy reconciliation hangs its repair kick
// here, so a rejoining node is reconciled without waiting out the
// background period.
func WithRecoveryHook(fn func(id int)) EngineOption {
	return engineOption(func(e *Engine) { e.onRecover = fn })
}

// WithFailureDetection routes crash teardown through a failure-detection
// protocol. A crash then takes effect in two steps: the radio goes
// silent and the detector's beacon loop for the node stops immediately,
// but routing exclusion and the storage protocols' repair run only when
// the detector raises a suspicion — after the victim's neighbours miss
// enough beacons. Queries issued inside that emergent window route into
// an undetected corpse and exercise the graceful-degradation path. The
// engine records each crash-to-suspicion gap in DetectionLatency.
// Without this option, repair runs synchronously inside CrashNode.
func WithFailureDetection(d FailureDetector) EngineOption {
	return engineOption(func(e *Engine) { e.detector = d })
}

// NewEngine wires an engine to a universe. Battery-depletion deaths are
// hooked up immediately: when the network reports a node's budget spent,
// the engine schedules a crash for it at the current virtual time
// (deferred one scheduler event, since depletion fires mid-transmit).
func NewEngine(sched *sim.Scheduler, net *network.Network, router *gpsr.Router, systems []System, opts ...EngineOption) *Engine {
	e := &Engine{
		sched:      sched,
		net:        net,
		router:     router,
		systems:    systems,
		down:       make([]bool, net.Layout().N()),
		crashedAt:  make([]time.Duration, net.Layout().N()),
		detectHist: stats.NewIntHistogram(),
		// A fixed seed, so a plan's burst drops are the same every run.
		burstSrc: rng.New(0x0C5A05),
	}
	for i := range e.crashedAt {
		e.crashedAt[i] = detectSentinel
	}
	for _, o := range opts {
		o.apply(e)
	}
	if e.detector != nil {
		e.detector.OnSuspect(func(id int) { e.onSuspect(id) })
	}
	net.OnDepleted(func(id int) {
		sched.After(0, func() { e.CrashNode(id) })
	})
	return e
}

// Schedule validates the plan and queues every fault on the scheduler.
// The faults fire as the caller drives the scheduler (Run / RunUntil),
// interleaved with whatever workload is queued alongside.
func (e *Engine) Schedule(p Plan) error {
	if err := p.Validate(len(e.down)); err != nil {
		return err
	}
	for _, f := range p.Faults {
		f := f
		if err := e.sched.At(f.At, func() { e.execute(f) }); err != nil {
			return fmt.Errorf("chaos: scheduling %v at %v: %w", f.Kind, f.At, err)
		}
	}
	return nil
}

func (e *Engine) execute(f Fault) {
	switch f.Kind {
	case Crash:
		e.CrashNode(f.Node)
	case Recover:
		e.RecoverNode(f.Node)
	case Burst:
		e.StartBurst(f.Region, f.Rate, f.Duration)
	}
}

// CrashNode kills a node. Without a failure detector the teardown is
// synchronous at every layer: routing excludes it, the radio goes
// silent, and each storage system runs its repair protocol. With
// WithFailureDetection, only the physical layers die now — routing
// exclusion and repair wait for the detector's suspicion, so the
// detection window is whatever the beacon exchange takes to notice.
// Repair errors (a protocol finding no survivor to re-home onto) are
// collected, not fatal — see Errs. Crashing a dead node is a no-op.
func (e *Engine) CrashNode(id int) {
	if id < 0 || id >= len(e.down) || e.down[id] {
		return
	}
	e.down[id] = true
	e.crashes++
	e.net.FailNode(id)
	if e.detector != nil {
		e.detector.Fail(id)
		if e.detector.Suspect(id) {
			// A standing (lossy-link) suspicion predates the crash, so no
			// new callback will fire; tear down now without a latency
			// sample — the crash was effectively pre-detected.
			e.teardown(id)
			return
		}
		e.crashedAt[id] = e.sched.Now()
		return
	}
	e.router.Exclude(id)
	e.repair(id)
}

// onSuspect is the detector callback: protocol-level teardown for a
// crashed node, at the moment its neighbours noticed the silence.
// Suspicions about nodes the engine never crashed (false positives from
// lossy links) are ignored — the node's own next beacon clears them.
func (e *Engine) onSuspect(id int) {
	if id < 0 || id >= len(e.down) || !e.down[id] {
		return
	}
	if at := e.crashedAt[id]; at != detectSentinel {
		e.detectHist.Add((e.sched.Now() - at).Milliseconds())
		e.crashedAt[id] = detectSentinel
	}
	e.teardown(id)
}

// teardown runs the protocol-level part of a crash: routing detours
// around the corpse, then every storage system repairs.
func (e *Engine) teardown(id int) {
	e.router.Exclude(id)
	e.repair(id)
}

// repair runs every storage protocol's failure handler for id.
func (e *Engine) repair(id int) {
	for _, s := range e.systems {
		if err := s.FailNode(id); err != nil {
			e.errs = append(e.errs, fmt.Errorf("chaos: crash %d: %w", id, err))
		}
	}
}

// RecoverNode brings a crashed node back at every layer. A node that
// died of battery depletion stays dead — there is no battery to reboot
// with. Recovering an alive node is a no-op.
func (e *Engine) RecoverNode(id int) {
	if id < 0 || id >= len(e.down) || !e.down[id] || e.net.Depleted(id) {
		return
	}
	e.down[id] = false
	e.recoveries++
	e.crashedAt[id] = detectSentinel
	e.router.Restore(id)
	e.net.RecoverNode(id)
	if e.detector != nil {
		e.detector.Recover(id)
	}
	for _, s := range e.systems {
		s.RecoverNode(id)
	}
	if e.onRecover != nil {
		e.onRecover(id)
	}
}

// StartBurst opens a regional loss window now and schedules its end.
func (e *Engine) StartBurst(region geo.Rect, rate float64, duration time.Duration) {
	e.bursts++
	cancel := e.net.AddRegionLoss(region, rate, e.burstSrc)
	e.sched.After(duration, cancel)
}

// Down reports whether the engine currently holds the node down.
func (e *Engine) Down(id int) bool { return e.down[id] }

// DetectionLatency returns the histogram of crash-to-suspicion gaps (in
// milliseconds) observed through the failure detector. Empty when the
// engine runs without WithFailureDetection or no crash has been detected
// yet.
func (e *Engine) DetectionLatency() *stats.IntHistogram { return e.detectHist }

// Crashes returns the number of crashes executed so far.
func (e *Engine) Crashes() int { return e.crashes }

// Recoveries returns the number of recoveries executed so far.
func (e *Engine) Recoveries() int { return e.recoveries }

// Errs returns repair errors collected during crashes (typically "no
// surviving node" when a plan kills nearly everything).
func (e *Engine) Errs() []error { return e.errs }
