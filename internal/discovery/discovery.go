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
	"slices"
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

// Validate rejects, after defaults, a configuration that breaks the
// protocol: Interval ≤ 0 spins the beacon loop at zero delay, Jitter < 0
// breaks the jitter draw, and MissLimit < 1 suspects healthy nodes.
func (c Config) Validate() error {
	if c.applyDefaults(); c.Interval <= 0 || c.Jitter < 0 || c.MissLimit < 1 || c.PayloadBytes < 0 {
		return fmt.Errorf("discovery: want Interval > 0, Jitter ≥ 0, MissLimit ≥ 1 and PayloadBytes ≥ 0, got %+v", c)
	}
	return nil
}

// Timeout returns the eviction deadline: a neighbour not heard for this
// long is suspected. MissLimit beacon periods plus the jitter slack each
// period can add.
func (c Config) Timeout() time.Duration {
	return time.Duration(c.MissLimit) * (c.Interval + c.Jitter)
}

// Protocol is a running beacon exchange. A beacon that changes no table
// writes none: each sender keeps one stamp, the time of its latest
// beacon, and a's edge for neighbour b holds a time of its own only while
// a missed b's latest beacon, so a's time for b is old[e] on a miss and
// stamp[b] otherwise.
//
// Invariant: an edge that is not a miss cannot expire, as b's next beacon
// is due within Interval + ⌈Jitter/2⌉ ≤ Timeout of its stamp and Fail
// turns a silenced node's edges into misses. So a node sweeps its table
// only while cand counts a miss in it.
type Protocol struct {
	cfg   Config
	net   *network.Network
	sched *sim.Scheduler
	src   *rng.Source

	// hid is the protocol's typed-event handler: a beacon tick is the
	// event (hid, 0, node id, epoch).
	hid sim.HandlerID
	// stamp[b] is when b last beaconed (never before its first beacon).
	stamp []time.Duration
	// Edge off[a]+k is a's slot for layout.Neighbors(a)[k], so a row walks
	// in id order. miss marks an edge that missed its neighbour's latest
	// beacon; old is then its time (never: not in the table).
	off  []int
	miss []bool
	old  []time.Duration
	// missOut[b] counts the misses for b; cand[a] counts a's misses still
	// in its table, the only edges that can expire.
	missOut, cand []int32
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

// never is the time of a neighbour not in the table, and the stamp of a
// node that has not beaconed yet; virtual time is never negative.
const never time.Duration = -1

// New prepares the protocol over a network and scheduler. An invalid
// configuration (see Config.Validate) is a programming error and panics.
func New(net *network.Network, sched *sim.Scheduler, src *rng.Source, cfg Config) *Protocol {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.applyDefaults()
	layout := net.Layout()
	n := layout.N()
	p := &Protocol{
		cfg:       cfg,
		net:       net,
		sched:     sched,
		src:       src,
		stamp:     make([]time.Duration, n),
		off:       make([]int, n+1),
		missOut:   make([]int32, n),
		cand:      make([]int32, n),
		failed:    make([]bool, n),
		epoch:     make([]uint64, n),
		suspected: make([]bool, n),
	}
	p.hid = sched.Register(p)
	for a := 0; a < n; a++ {
		p.stamp[a] = never
		p.off[a+1] = p.off[a] + len(layout.Neighbors(a))
	}
	p.miss, p.old = make([]bool, p.off[n]), make([]time.Duration, p.off[n])
	return p
}

// heard is a's time for the neighbour b in a's edge e: when a last heard
// b, or never while b is not in a's table.
func (p *Protocol) heard(e, b int) time.Duration {
	if p.miss[e] {
		return p.old[e]
	}
	return p.stamp[b]
}

// edge returns the edge in a's row that holds its radio neighbour b.
func (p *Protocol) edge(a, b int) int {
	k, _ := slices.BinarySearch(p.net.Layout().Neighbors(a), b)
	return p.off[a] + k
}

// toMiss makes e, a's edge for b, a miss holding t unless it is one.
func (p *Protocol) toMiss(e, a, b int, t time.Duration) {
	if p.miss[e] {
		return
	}
	p.miss[e], p.old[e] = true, t
	p.missOut[b]++
	if t != never {
		p.cand[a]++
	}
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
	p.silence(id)
}

// silence turns the edges that heard id's latest beacon into misses: id
// sends no next one, and a sweep looks only at misses.
func (p *Protocol) silence(id int) {
	for _, a := range p.net.Layout().Neighbors(id) {
		p.toMiss(p.edge(a, id), a, id, p.stamp[id])
	}
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
	missed := p.net.Broadcast(id, network.KindControl, p.cfg.PayloadBytes)
	if len(missed) > 0 || p.missOut[id] > 0 {
		p.merge(id, missed)
	}
	p.stamp[id] = now
	if p.failed[id] {
		// A depletion watcher failed id during its own broadcast.
		p.silence(id)
	}
	// Any node that heard this beacon knows id is alive.
	p.suspected[id] = false
	if p.cand[id] > 0 {
		p.sweep(id, now)
	}
	jitter := time.Duration(p.src.Int63() % int64(p.cfg.Jitter+1))
	p.scheduleBeacon(id, ep, p.cfg.Interval+jitter-p.cfg.Jitter/2)
}

// merge updates, before stamp[id] moves, the edges for id that a beacon
// missing the given slots of id's row changes: an edge that missed it
// keeps id's previous stamp, and a miss that heard it is a miss no more.
// If it missed just the edges the last one did, only those are looked at.
func (p *Protocol) merge(id int, missed []int) {
	nbrs := p.net.Layout().Neighbors(id)
	stale := p.missOut[id] // misses on edges that may have heard this beacon
	for _, k := range missed {
		if e := p.edge(nbrs[k], id); p.miss[e] {
			stale--
		} else {
			p.toMiss(e, nbrs[k], id, p.stamp[id])
		}
	}
	for k := 0; stale > 0; k++ {
		if len(missed) > 0 && missed[0] == k {
			missed = missed[1:]
			continue
		}
		if e := p.edge(nbrs[k], id); p.miss[e] {
			p.miss[e] = false
			p.missOut[id]--
			stale--
			if p.old[e] != never {
				p.cand[nbrs[k]]--
			}
		}
	}
}

// sweep evicts neighbours of id not heard within the timeout and raises
// a suspicion for each eviction, in ascending id order — the order of
// the table's slots — so the callback order is deterministic. Only a
// miss can be old enough (see Protocol).
func (p *Protocol) sweep(id int, now time.Duration) {
	deadline := now - p.cfg.Timeout()
	row := p.off[id]
	for k, nbr := range p.net.Layout().Neighbors(id) {
		if heard := p.heard(row+k, nbr); heard == never || heard >= deadline {
			continue
		}
		p.old[row+k] = never
		p.cand[id]--
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
	for k, nbr := range nbrs {
		if heard := p.heard(p.off[id]+k, nbr); heard != never && heard >= deadline {
			out = append(out, nbr)
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
