// Package discovery implements the beacon protocol the paper assumes as
// infrastructure (§2: "each node maintains a neighbor table via periodic
// exchange of beacon messages").
//
// Every node broadcasts a beacon once per interval (with per-node jitter
// to avoid synchronized collisions); receivers record the sender with a
// timestamp. A neighbour that misses several consecutive beacons is
// evicted, which is how node failures become visible to the routing
// layer. Eviction raises a *suspicion*: the first neighbour whose
// timeout expires for a silent node fires the OnSuspect callback, so
// failure-detection latency is an emergent property of the beacon
// period, jitter, miss limit, and link loss — not a configured constant.
// The protocol runs on the deterministic discrete-event kernel, so
// convergence and detection latency are reproducible and testable
// against the oracle neighbour tables of the deployment.
package discovery

import (
	"fmt"
	"time"

	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// Config tunes the protocol.
type Config struct {
	// Interval between a node's beacons (default 1 s).
	Interval time.Duration
	// Jitter is the maximum random offset added to each beacon (default
	// Interval/4); it desynchronizes the nodes.
	Jitter time.Duration
	// MissLimit is how many consecutive missed beacons evict a neighbour
	// (default 3).
	MissLimit int
	// PayloadBytes is the beacon frame size (default 16: node id +
	// coordinates).
	PayloadBytes int
}

func (c *Config) applyDefaults() {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = c.Interval / 4
	}
	if c.MissLimit == 0 {
		c.MissLimit = 3
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 16
	}
}

// Timeout returns the eviction deadline: a neighbour not heard for this
// long is suspected. MissLimit beacon periods plus the jitter slack each
// period can add.
func (c Config) Timeout() time.Duration {
	return time.Duration(c.MissLimit) * (c.Interval + c.Jitter)
}

// Protocol is a running beacon exchange.
type Protocol struct {
	cfg   Config
	net   *network.Network
	sched *sim.Scheduler
	src   *rng.Source

	// hid is the protocol's typed-event handler: a beacon tick is the
	// event (hid, 0, node id, epoch).
	hid sim.HandlerID
	// lastHeard[a][k] is when a last received the beacon of its k-th radio
	// neighbour, layout.Neighbors(a)[k], or never while that neighbour is
	// not in a's table. Rows run parallel to the (ascending) adjacency
	// rows, so a table walk is already in id order.
	lastHeard [][]time.Duration
	// rev[a][k] is a's own slot in the row of layout.Neighbors(a)[k]: where
	// a's beacon lands at that neighbour.
	rev [][]int32
	// failed marks nodes that have stopped beaconing.
	failed []bool
	// epoch invalidates stale beacon loops: Fail and Recover bump it, and
	// a pending beacon event whose epoch no longer matches is a no-op, so
	// a fail/recover pair cannot leave two loops running for one node.
	epoch []uint64
	// suspected marks nodes some neighbour has evicted on timeout; it is
	// cleared the moment any node hears the suspect beacon again.
	suspected []bool
	// onSuspect, when set, fires once per suspicion episode.
	onSuspect func(id int)
	// stopped ends the beacon loops.
	stopped bool

	// Metric handles (nil until EnableMetrics).
	mBeacons    *metrics.Counter
	mSuspicions *metrics.Counter
	mEvictions  *metrics.Counter
}

// never marks a lastHeard slot whose neighbour is not in the table;
// virtual time is never negative.
const never time.Duration = -1

// New prepares the protocol over a network and scheduler.
func New(net *network.Network, sched *sim.Scheduler, src *rng.Source, cfg Config) *Protocol {
	cfg.applyDefaults()
	layout := net.Layout()
	n := layout.N()
	p := &Protocol{
		cfg:       cfg,
		net:       net,
		sched:     sched,
		src:       src,
		lastHeard: make([][]time.Duration, n),
		rev:       make([][]int32, n),
		failed:    make([]bool, n),
		epoch:     make([]uint64, n),
		suspected: make([]bool, n),
	}
	p.hid = sched.Register(p)
	edges := 0
	for a := 0; a < n; a++ {
		edges += len(layout.Neighbors(a))
	}
	heard, rev := make([]time.Duration, edges), make([]int32, edges)
	for i := range heard {
		heard[i] = never
	}
	// Rows are ascending and a ascends, so a's slot in b's row is the
	// number of b's neighbours already visited.
	seen := make([]int32, n)
	for a := 0; a < n; a++ {
		nbrs := layout.Neighbors(a)
		p.lastHeard[a], heard = heard[:len(nbrs):len(nbrs)], heard[len(nbrs):]
		p.rev[a], rev = rev[:len(nbrs):len(nbrs)], rev[len(nbrs):]
		for k, b := range nbrs {
			p.rev[a][k] = seen[b]
			seen[b]++
		}
	}
	return p
}

// HandleEvent implements sim.Handler: node a's beacon tick for epoch b.
func (p *Protocol) HandleEvent(_ uint8, a, b uint64) { p.beacon(int(a), b) }

// scheduleBeacon queues node id's next beacon tick d from now.
func (p *Protocol) scheduleBeacon(id int, ep uint64, d time.Duration) {
	p.sched.AfterEvent(d, p.hid, 0, uint64(id), ep)
}

// Config returns the effective configuration (defaults applied).
func (p *Protocol) Config() Config { return p.cfg }

// EnableMetrics registers the protocol's live metrics on reg: beacon,
// suspicion, and eviction counters plus a function-backed gauge over
// currently suspected nodes. A nil registry is a no-op.
func (p *Protocol) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p.mBeacons = reg.Counter("discovery_beacons_total", "beacon broadcasts sent")
	p.mSuspicions = reg.Counter("discovery_suspicions_total", "suspicion episodes raised")
	p.mEvictions = reg.Counter("discovery_evictions_total", "neighbour-table evictions on beacon timeout")
	reg.GaugeFunc("discovery_suspected_nodes", "nodes currently under suspicion", func() float64 {
		var n float64
		for _, s := range p.suspected {
			if s {
				n++
			}
		}
		return n
	})
}

// Start schedules the first beacon of every node. Call sched.RunUntil to
// advance the protocol.
func (p *Protocol) Start() {
	for id := 0; id < p.net.Layout().N(); id++ {
		offset := time.Duration(p.src.Int63() % int64(p.cfg.Jitter+1))
		p.scheduleBeacon(id, p.epoch[id], offset)
	}
}

// Stop ends all beacon loops (pending events become no-ops).
func (p *Protocol) Stop() { p.stopped = true }

// Fail silences a node: it stops beaconing (and, in a real system, stops
// forwarding). Its neighbours evict it after MissLimit intervals, which
// raises the suspicion that drives failure detection.
func (p *Protocol) Fail(id int) {
	if id < 0 || id >= len(p.failed) || p.failed[id] {
		return
	}
	p.failed[id] = true
	p.epoch[id]++
}

// Recover restarts a silenced node's beacon loop (a rebooted mote
// re-announcing itself). Neighbours clear any standing suspicion as soon
// as they hear it again. Recovering a node that never failed is a no-op.
func (p *Protocol) Recover(id int) {
	if id < 0 || id >= len(p.failed) || !p.failed[id] {
		return
	}
	p.failed[id] = false
	p.epoch[id]++
	offset := time.Duration(p.src.Int63() % int64(p.cfg.Jitter+1))
	p.scheduleBeacon(id, p.epoch[id], offset)
}

// Failed reports whether the node's beacon loop is currently silenced.
func (p *Protocol) Failed(id int) bool { return p.failed[id] }

// Suspect reports whether some neighbour currently suspects the node:
// its beacons have gone unheard past the eviction timeout and it has not
// been heard since.
func (p *Protocol) Suspect(id int) bool { return p.suspected[id] }

// OnSuspect registers fn to be called once per suspicion episode, at the
// moment the first neighbour's beacon timeout expires for a silent node.
// The callback runs inside a scheduler event (the suspecting node's
// beacon tick), so the detection time it observes via the scheduler
// clock is the emergent detection latency.
func (p *Protocol) OnSuspect(fn func(id int)) { p.onSuspect = fn }

// beacon broadcasts once, sweeps the sender's own neighbour table for
// timed-out entries, and reschedules.
func (p *Protocol) beacon(id int, ep uint64) {
	if p.stopped || p.failed[id] || ep != p.epoch[id] {
		return
	}
	now := p.sched.Now()
	p.mBeacons.Inc()
	// The receivers are a subsequence of id's adjacency row; k tracks each
	// one's slot there, and rev turns it into id's slot in their row.
	nbrs, rev, k := p.net.Layout().Neighbors(id), p.rev[id], 0
	for _, nbr := range p.net.Broadcast(id, network.KindControl, p.cfg.PayloadBytes) {
		for nbrs[k] != nbr {
			k++
		}
		p.lastHeard[nbr][rev[k]] = now
	}
	// Any node that heard this beacon knows id is alive.
	if p.suspected[id] {
		p.suspected[id] = false
	}
	p.sweep(id, now)
	jitter := time.Duration(p.src.Int63() % int64(p.cfg.Jitter+1))
	p.scheduleBeacon(id, ep, p.cfg.Interval+jitter-p.cfg.Jitter/2)
}

// sweep evicts neighbours of id not heard within the timeout and raises
// a suspicion for each eviction, in ascending id order — the order of
// the table's slots — so the callback order is deterministic.
func (p *Protocol) sweep(id int, now time.Duration) {
	deadline := now - p.cfg.Timeout()
	nbrs := p.net.Layout().Neighbors(id)
	for k, heard := range p.lastHeard[id] {
		if heard == never || heard >= deadline {
			continue
		}
		nbr := nbrs[k]
		p.lastHeard[id][k] = never
		p.mEvictions.Inc()
		if p.suspected[nbr] {
			continue
		}
		p.suspected[nbr] = true
		p.mSuspicions.Inc()
		if p.onSuspect != nil {
			p.onSuspect(nbr)
		}
	}
}

// Neighbors returns the node's current neighbour table: every node heard
// within the eviction timeout, sorted ascending. The returned slice is
// freshly allocated on every call — callers may keep or mutate it, and a
// header cached before a failure never masks a later eviction (re-call
// to observe the updated table).
func (p *Protocol) Neighbors(id int) []int {
	deadline := p.sched.Now() - p.cfg.Timeout()
	nbrs := p.net.Layout().Neighbors(id)
	out := make([]int, 0, len(nbrs))
	for k, heard := range p.lastHeard[id] {
		if heard != never && heard >= deadline {
			out = append(out, nbrs[k])
		}
	}
	return out
}

// Converged reports whether every live node's discovered table equals the
// oracle table of the deployment restricted to live nodes, returning a
// description of the first divergence otherwise.
func (p *Protocol) Converged() (bool, string) {
	layout := p.net.Layout()
	for id := 0; id < layout.N(); id++ {
		if p.failed[id] {
			continue
		}
		want := make([]int, 0, len(layout.Neighbors(id)))
		for _, nbr := range layout.Neighbors(id) {
			if !p.failed[nbr] {
				want = append(want, nbr)
			}
		}
		got := p.Neighbors(id)
		if len(got) != len(want) {
			return false, fmt.Sprintf("node %d: discovered %v, oracle %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				return false, fmt.Sprintf("node %d: discovered %v, oracle %v", id, got, want)
			}
		}
	}
	return true, ""
}
