package load

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/network"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
)

// Target is what the load engine drives: it resolves the station serving
// an operation (for admission decisions), launches operations, and
// reports completion on the virtual clock.
type Target interface {
	// Name identifies the backend in reports.
	Name() string
	// Station returns the id of the serving station admission control
	// consults for op — the entry node where queueing happens.
	Station(op *Op) int
	// Depth returns the current queue depth at a station.
	Depth(station int) int
	// Launch starts op at the current virtual time; done fires exactly
	// once on the virtual clock when the operation completes.
	Launch(op *Op, station int, done func()) error
	// Supports reports whether the backend can serve a class (GHT, for
	// example, has no range-query path).
	Supports(c Class) bool
	// MaxDepth returns the deepest station queue seen during the run.
	MaxDepth() int
}

// Batcher is implemented by targets that can serve queries as coalesced
// batches, the degraded mode of ShedOnDepth admission control.
type Batcher interface {
	// ConfigureBatch sets the batch size limit and flush window.
	ConfigureBatch(limit int, window time.Duration)
	// LaunchBatched buffers op at its station; the batch flushes as one
	// discounted service demand when it fills or the window elapses.
	LaunchBatched(op *Op, station int, done func()) error
}

// CostModel converts an operation's message footprint into the service
// time its station spends on it. The defaults make one serving node
// worth roughly 500 messages of processing per second — slow sensor-class
// hardware — so saturation appears at simulable rates.
type CostModel struct {
	// Base is the fixed per-operation processing cost.
	Base time.Duration
	// PerMessage is charged for every radio message in the operation's
	// footprint.
	PerMessage time.Duration
	// BatchDiscount is the fraction of the summed per-message cost a
	// coalesced batch pays (shared fan-out legs), in (0, 1].
	BatchDiscount float64
}

// DefaultCost is the service-time model of every StationTarget.
var DefaultCost = CostModel{Base: 2 * time.Millisecond, PerMessage: 2 * time.Millisecond, BatchDiscount: 0.5}

// demand converts a message count into a service time.
func (c CostModel) demand(msgs uint64) time.Duration {
	return c.Base + time.Duration(msgs)*c.PerMessage
}

// batch is the pending coalesced work at one station.
type batch struct {
	ops   []*Op
	dones []func()
	gen   uint64 // invalidates the window timer after an early flush
}

// StationTarget runs a synchronous storage system under the station
// queueing model: each operation executes on the system for its message
// footprint, then occupies its serving station for the service time
// DefaultCost charges it; completion fires when the station works
// through the queue.
type StationTarget struct {
	sys         dcs.System
	net         *network.Network
	rule        func(op *Op) int
	unsupported []Class
	sched       *sim.Scheduler
	stations    map[int]*Station

	batchLimit  int
	batchWindow time.Duration
	batches     map[int]*batch

	// tracer, when non-nil (Engine.EnableAutopsy), receives wait/serve
	// records bracketing the station queueing delay of each traced
	// operation.
	tracer *trace.Tracer

	errs []error
}

// NewStationTarget runs sys, whose radio is net, in the station model on
// sched. rule is the scheme's station rule: the node that serves op, the
// entry node admission control consults and where queueing happens.
// unsupported lists the classes the scheme cannot serve (GHT has no
// range-query path).
func NewStationTarget(sys dcs.System, net *network.Network, sched *sim.Scheduler, rule func(op *Op) int, unsupported ...Class) *StationTarget {
	return &StationTarget{
		sys:         sys,
		net:         net,
		rule:        rule,
		unsupported: unsupported,
		sched:       sched,
		stations:    make(map[int]*Station),
		batches:     make(map[int]*batch),
	}
}

// Name implements Target: the scheme's name in lower case, as the
// backend is named on the command line.
func (t *StationTarget) Name() string { return strings.ToLower(t.sys.Name()) }

// Station implements Target.
func (t *StationTarget) Station(op *Op) int { return t.rule(op) }

// Supports implements Target.
func (t *StationTarget) Supports(c Class) bool { return !slices.Contains(t.unsupported, c) }

// Depth implements Target.
func (t *StationTarget) Depth(station int) int {
	if st := t.stations[station]; st != nil {
		return st.Depth() + len(t.batchOps(station))
	}
	return len(t.batchOps(station))
}

func (t *StationTarget) batchOps(station int) []*Op {
	if b := t.batches[station]; b != nil {
		return b.ops
	}
	return nil
}

// station returns (creating on demand) the queue for a serving node.
func (t *StationTarget) station(id int) *Station {
	st := t.stations[id]
	if st == nil {
		st = NewStation(t.sched)
		t.stations[id] = st
	}
	return st
}

// Launch implements Target.
func (t *StationTarget) Launch(op *Op, station int, done func()) error {
	msgs, err := t.execute(op)
	if err != nil {
		return err
	}
	st := t.station(station)
	t.recordQueueing(st, station)
	st.Submit(DefaultCost.demand(msgs), func(wait, service time.Duration) { done() })
	return nil
}

// recordQueueing stamps the queue-entry and service-start records for
// the ambient span, if any. The station's busy-until watermark is
// already known at submit time, so no extra scheduler event is needed.
func (t *StationTarget) recordQueueing(st *Station, station int) {
	if t.tracer.CurrentSpan() == 0 {
		return
	}
	start := t.sched.Now()
	if st.busyUntil > start {
		start = st.busyUntil
	}
	t.tracer.Record(trace.TypeWait, station, st.Depth(), "")
	t.tracer.RecordAt(start, trace.TypeServe, station, 0, "")
}

// ConfigureBatch implements Batcher.
func (t *StationTarget) ConfigureBatch(limit int, window time.Duration) {
	t.batchLimit = limit
	t.batchWindow = window
}

// LaunchBatched implements Batcher.
func (t *StationTarget) LaunchBatched(op *Op, station int, done func()) error {
	if t.batchLimit <= 0 {
		return t.Launch(op, station, done)
	}
	b := t.batches[station]
	if b == nil {
		b = &batch{}
		t.batches[station] = b
	}
	b.ops = append(b.ops, op)
	b.dones = append(b.dones, done)
	if len(b.ops) >= t.batchLimit {
		t.flush(station)
		return nil
	}
	if len(b.ops) == 1 {
		gen := b.gen
		t.sched.After(t.batchWindow, func() {
			if nb := t.batches[station]; nb == b && b.gen == gen && len(b.ops) > 0 {
				t.flush(station)
			}
		})
	}
	return nil
}

// flush executes the station's pending batch as one discounted service
// demand and fires every buffered completion when it finishes.
func (t *StationTarget) flush(station int) {
	b := t.batches[station]
	if b == nil || len(b.ops) == 0 {
		return
	}
	ops, dones := b.ops, b.dones
	b.ops, b.dones = nil, nil
	b.gen++
	var total uint64
	for _, op := range ops {
		msgs, err := t.execute(op)
		if err != nil {
			t.errs = append(t.errs, fmt.Errorf("load: batched %s op: %w", op.Class, err))
			continue
		}
		total += msgs
	}
	discounted := uint64(math.Ceil(float64(total) * DefaultCost.BatchDiscount))
	t.station(station).Submit(DefaultCost.demand(discounted), func(wait, service time.Duration) {
		for _, done := range dones {
			done()
		}
	})
}

// MaxDepth implements Target.
func (t *StationTarget) MaxDepth() int {
	max := 0
	for _, st := range t.stations {
		if st.MaxDepth() > max {
			max = st.MaxDepth()
		}
	}
	return max
}

// Errs returns errors recorded by asynchronous batch flushes.
func (t *StationTarget) Errs() []error { return t.errs }

// trafficDelta returns the network's running total of query, reply and
// insert transmissions; execute charges an operation the difference.
func trafficDelta(net *network.Network) uint64 {
	return net.Messages(network.KindQuery) + net.Messages(network.KindReply) + net.Messages(network.KindInsert)
}

// execute runs op on the system and returns the radio messages it
// cost.
func (t *StationTarget) execute(op *Op) (uint64, error) {
	before := trafficDelta(t.net)
	var err error
	if op.Class == Insert {
		err = t.sys.Insert(op.Node, op.Event)
	} else {
		_, err = t.sys.Query(op.Node, op.Query)
	}
	if err != nil {
		return 0, fmt.Errorf("load: %s %s: %w", t.Name(), op.Class, err)
	}
	return trafficDelta(t.net) - before, nil
}
