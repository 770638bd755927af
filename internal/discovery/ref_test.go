package discovery

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// refProtocol is the reference for Protocol: the beacon exchange as it
// stood with a per-edge "last heard" table written by every beacon into
// each receiver's row. Only the broadcast loop is adapted, to walk the
// sender's row past the slots Broadcast reports missed.
type refProtocol struct {
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

// newRef prepares the reference over a network and scheduler.
func newRef(net *network.Network, sched *sim.Scheduler, src *rng.Source, cfg Config) *refProtocol {
	cfg.applyDefaults()
	layout := net.Layout()
	n := layout.N()
	p := &refProtocol{
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
func (p *refProtocol) HandleEvent(_ uint8, a, b uint64) { p.beacon(int(a), b) }

// scheduleBeacon queues node id's next beacon tick d from now.
func (p *refProtocol) scheduleBeacon(id int, ep uint64, d time.Duration) {
	p.sched.AfterEvent(d, p.hid, 0, uint64(id), ep)
}

// Config returns the effective configuration (defaults applied).
func (p *refProtocol) Config() Config { return p.cfg }

// EnableMetrics registers the protocol's live metrics on reg: beacon,
// suspicion, and eviction counters plus a function-backed gauge over
// currently suspected nodes. A nil registry is a no-op.
func (p *refProtocol) EnableMetrics(reg *metrics.Registry) {
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
func (p *refProtocol) Start() {
	for id := 0; id < p.net.Layout().N(); id++ {
		offset := time.Duration(p.src.Int63() % int64(p.cfg.Jitter+1))
		p.scheduleBeacon(id, p.epoch[id], offset)
	}
}

// Stop ends all beacon loops (pending events become no-ops).
func (p *refProtocol) Stop() { p.stopped = true }

// Fail silences a node: it stops beaconing (and, in a real system, stops
// forwarding). Its neighbours evict it after MissLimit intervals, which
// raises the suspicion that drives failure detection.
func (p *refProtocol) Fail(id int) {
	if id < 0 || id >= len(p.failed) || p.failed[id] {
		return
	}
	p.failed[id] = true
	p.epoch[id]++
}

// Recover restarts a silenced node's beacon loop (a rebooted mote
// re-announcing itself). Neighbours clear any standing suspicion as soon
// as they hear it again. Recovering a node that never failed is a no-op.
func (p *refProtocol) Recover(id int) {
	if id < 0 || id >= len(p.failed) || !p.failed[id] {
		return
	}
	p.failed[id] = false
	p.epoch[id]++
	offset := time.Duration(p.src.Int63() % int64(p.cfg.Jitter+1))
	p.scheduleBeacon(id, p.epoch[id], offset)
}

// Failed reports whether the node's beacon loop is currently silenced.
func (p *refProtocol) Failed(id int) bool { return p.failed[id] }

// Suspect reports whether some neighbour currently suspects the node:
// its beacons have gone unheard past the eviction timeout and it has not
// been heard since.
func (p *refProtocol) Suspect(id int) bool { return p.suspected[id] }

// OnSuspect registers fn to be called once per suspicion episode, at the
// moment the first neighbour's beacon timeout expires for a silent node.
// The callback runs inside a scheduler event (the suspecting node's
// beacon tick), so the detection time it observes via the scheduler
// clock is the emergent detection latency.
func (p *refProtocol) OnSuspect(fn func(id int)) { p.onSuspect = fn }

// beacon broadcasts once, sweeps the sender's own neighbour table for
// timed-out entries, and reschedules.
func (p *refProtocol) beacon(id int, ep uint64) {
	if p.stopped || p.failed[id] || ep != p.epoch[id] {
		return
	}
	now := p.sched.Now()
	p.mBeacons.Inc()
	// The receivers are id's adjacency row less the missed slots, and rev
	// turns a slot into id's slot in that receiver's row.
	nbrs, rev := p.net.Layout().Neighbors(id), p.rev[id]
	missed := p.net.Broadcast(id, network.KindControl, p.cfg.PayloadBytes)
	for k, nbr := range nbrs {
		if len(missed) > 0 && missed[0] == k {
			missed = missed[1:]
			continue
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
func (p *refProtocol) sweep(id int, now time.Duration) {
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
func (p *refProtocol) Neighbors(id int) []int {
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
func (p *refProtocol) Converged() (bool, string) {
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

// table is what FuzzBeaconMatchesReference and BenchmarkBeaconRound drive
// on both protocols.
type table interface {
	Start()
	Stop()
	Fail(id int)
	Recover(id int)
	Neighbors(id int) []int
	Suspect(id int) bool
	Converged() (bool, string)
	OnSuspect(fn func(id int))
	EnableMetrics(reg *metrics.Registry)
}

// beaconTwin is one of two universes built alike on one layout — a
// scheduler, a radio with its loss source, a metrics registry and a
// protocol — one running Protocol and one refProtocol.
type beaconTwin struct {
	sched *sim.Scheduler
	net   *network.Network
	loss  *rng.Source
	reg   *metrics.Registry
	p     table
	// log is every suspicion raised, as (time, node).
	log []string
}

// newBeaconTwin builds a universe over l with the given loss rate,
// energy budget (0: none) and protocol configuration. With failOnDeplete
// the radio's depletion watcher fails the node in the protocol at once,
// inside the broadcast that drained it.
func newBeaconTwin(l *field.Layout, seed int64, loss, budget float64, cfg Config, ref, failOnDeplete bool) *beaconTwin {
	tw := &beaconTwin{sched: sim.NewScheduler(), loss: rng.New(seed), reg: metrics.New()}
	tw.net = network.New(l, network.WithLossRate(loss, tw.loss),
		network.WithEnergyModel(network.EnergyModel{Elec: 50e-9, Amp: 100e-12, Budget: budget}))
	if ref {
		tw.p = newRef(tw.net, tw.sched, rng.New(seed+1), cfg)
	} else {
		tw.p = New(tw.net, tw.sched, rng.New(seed+1), cfg)
	}
	tw.p.EnableMetrics(tw.reg)
	tw.p.OnSuspect(func(id int) { tw.log = append(tw.log, fmt.Sprint(tw.sched.Now(), id)) })
	if failOnDeplete {
		tw.net.OnDepleted(func(id int) { tw.p.Fail(id) })
	}
	return tw
}

// sameTables fails unless both universes show every node the same
// neighbour table and suspicion, and agree on convergence.
func sameTables(t *testing.T, a, b *beaconTwin) {
	t.Helper()
	for id := 0; id < a.net.Layout().N(); id++ {
		if na, nb := a.p.Neighbors(id), b.p.Neighbors(id); fmt.Sprint(na) != fmt.Sprint(nb) {
			t.Fatalf("at %v node %d: neighbours %v, reference %v", a.sched.Now(), id, na, nb)
		}
		if sa, sb := a.p.Suspect(id), b.p.Suspect(id); sa != sb {
			t.Fatalf("at %v node %d: suspect %v, reference %v", a.sched.Now(), id, sa, sb)
		}
	}
	checkCounts(t, a.p.(*Protocol))
	ca, da := a.p.Converged()
	cb, db := b.p.Converged()
	if ca != cb || da != db {
		t.Fatalf("at %v: converged %v %q, reference %v %q", a.sched.Now(), ca, da, cb, db)
	}
}

// checkCounts fails unless missOut and cand count what they claim to:
// the misses for each node, and each node's misses still in its table.
func checkCounts(t *testing.T, p *Protocol) {
	t.Helper()
	l := p.net.Layout()
	missOut, cand := make([]int32, l.N()), make([]int32, l.N())
	for a := 0; a < l.N(); a++ {
		for k, b := range l.Neighbors(a) {
			if e := p.off[a] + k; p.miss[e] {
				missOut[b]++
				if p.old[e] != never {
					cand[a]++
				}
			}
		}
	}
	if fmt.Sprint(missOut, cand) != fmt.Sprint(p.missOut, p.cand) {
		t.Fatalf("missOut %v cand %v, counted %v %v", p.missOut, p.cand, missOut, cand)
	}
}

// sameEnds fails unless both universes ended alike: the suspicion log,
// the protocol's counters, the radio's counters, per-node loads, drops
// and energies to the bit, and the next loss draw.
func sameEnds(t *testing.T, a, b *beaconTwin) {
	t.Helper()
	if la, lb := fmt.Sprint(a.log), fmt.Sprint(b.log); la != lb {
		t.Fatalf("suspicions %s, reference %s", la, lb)
	}
	if xa, xb := a.reg.Snapshot().Text(), b.reg.Snapshot().Text(); xa != xb {
		t.Fatalf("metrics differ:\n%s\nreference:\n%s", xa, xb)
	}
	sa, sb := a.net.Snapshot(), b.net.Snapshot()
	if fmt.Sprint(sa.Messages, sa.Bytes, sa.Drops) != fmt.Sprint(sb.Messages, sb.Bytes, sb.Drops) ||
		math.Float64bits(sa.EnergyJ) != math.Float64bits(sb.EnergyJ) {
		t.Fatalf("snapshot %+v, reference %+v", sa, sb)
	}
	for id := 0; id < a.net.Layout().N(); id++ {
		txa, rxa := a.net.NodeLoad(id)
		txb, rxb := b.net.NodeLoad(id)
		if txa != txb || rxa != rxb || a.net.NodeDrops(id) != b.net.NodeDrops(id) ||
			math.Float64bits(a.net.NodeEnergy(id)) != math.Float64bits(b.net.NodeEnergy(id)) {
			t.Fatalf("node %d: tx/rx/drops/energy %d/%d/%d/%v, reference %d/%d/%d/%v", id,
				txa, rxa, a.net.NodeDrops(id), a.net.NodeEnergy(id), txb, rxb, b.net.NodeDrops(id), b.net.NodeEnergy(id))
		}
	}
	if da, db := a.loss.Int63(), b.loss.Int63(); da != db {
		t.Fatalf("next loss draw %d, reference %d", da, db)
	}
}

// FuzzBeaconMatchesReference holds Protocol to refProtocol on twin
// universes over a random 32-node deployment, driven by a random plan:
// each step either advances virtual time (then every node's table,
// suspicion and convergence are compared) or applies one fault to both
// universes alike — a protocol-only Fail, a radio-only crash, both, a
// recovery in either order, a loss burst around a node, or Stop — under
// a loss rate, an energy budget that depletes nodes mid-run (whose
// watcher may fail them inside their own broadcast), MissLimit 1–3 and
// Jitter up to one Interval.
func FuzzBeaconMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0), uint8(25), []byte{0x1f, 0x22, 0x1f, 0x1f, 0x1f, 0x82, 0x1f, 0x1f})
	f.Add(int64(2), uint8(20), uint16(0), uint8(1), uint8(100), []byte{0x0a, 0x45, 0x1f, 0x65, 0x1f, 0x1f, 0xa5, 0x1f, 0x1f, 0xc3, 0x1f, 0x1f})
	f.Add(int64(3), uint8(5), uint16(9), uint8(6), uint8(10), []byte{0x1f, 0x1f, 0x1f, 0x1f, 0x1f, 0x1f, 0x1f, 0x1f, 0x1f, 0x1f})
	f.Add(int64(4), uint8(0), uint16(0), uint8(2), uint8(60), []byte{0x10, 0x24, 0x44, 0x64, 0x1f, 0x1f, 0x84, 0x1f, 0xa4, 0x1f, 0x1f, 0xe0, 0x1f})
	f.Add(int64(5), uint8(40), uint16(30), uint8(5), uint8(1), []byte{0x07, 0x33, 0x53, 0x1f, 0xc7, 0x1f, 0x73, 0x93, 0x1f, 0x1f, 0xe1, 0x1f})
	f.Add(int64(-68), uint8(5), uint16(9), uint8(0x39), uint8(1), []byte{0x2c, 0x1f})
	f.Fuzz(func(t *testing.T, seed int64, lossPct uint8, budget100uJ uint16, flags uint8, jitterPct uint8, steps []byte) {
		if len(steps) > 64 {
			return
		}
		src := rng.New(seed)
		pts := make([]geo.Point, 32)
		for i := range pts {
			pts[i] = geo.Pt(src.Uniform(0, 120), src.Uniform(0, 120))
		}
		l, err := field.FromPositions(pts, 120, 40)
		if err != nil {
			t.Skip(err)
		}
		cfg := Config{
			Interval:  time.Second,
			Jitter:    time.Duration(jitterPct%101) * time.Second / 100,
			MissLimit: 1 + int(flags%3),
		}
		loss := float64(lossPct%60) / 100
		budget := float64(budget100uJ%64) * 1e-4
		failOnDeplete := flags&8 != 0
		a := newBeaconTwin(l, seed, loss, budget, cfg, false, failOnDeplete)
		b := newBeaconTwin(l, seed, loss, budget, cfg, true, failOnDeplete)
		twins := []*beaconTwin{a, b}
		for _, tw := range twins {
			tw.p.Start()
		}
		for i, s := range steps {
			id := int(s&31) % l.N()
			for _, tw := range twins {
				switch s >> 5 {
				case 0: // advance
					if err := tw.sched.RunUntil(tw.sched.Now()+time.Duration(s&31+1)*150*time.Millisecond, 0); err != nil {
						t.Fatal(err)
					}
				case 1:
					tw.p.Fail(id)
				case 2:
					tw.net.FailNode(id)
				case 3:
					tw.net.FailNode(id)
					tw.p.Fail(id)
				case 4:
					tw.p.Recover(id)
					tw.net.RecoverNode(id)
				case 5:
					tw.net.RecoverNode(id)
					tw.p.Recover(id)
				case 6: // a loss burst around id, for a few beacon periods
					c := l.Pos(id)
					cancel := tw.net.AddRegionLoss(geo.RectFromCorners(geo.Pt(c.X-25, c.Y-25), geo.Pt(c.X+25, c.Y+25)),
						0.2+float64(i%4)*0.2, rng.New(seed+int64(i)))
					tw.sched.After(time.Duration(1+i%5)*time.Second, cancel)
				case 7:
					if s&31 == 0 {
						tw.p.Stop()
					} else if err := tw.sched.RunUntil(tw.sched.Now()+time.Duration(s&31)*10*time.Millisecond, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s>>5 == 0 || s>>5 == 7 {
				sameTables(t, a, b)
			}
		}
		for _, tw := range twins {
			if err := tw.sched.RunUntil(tw.sched.Now()+5*time.Second, 0); err != nil {
				t.Fatal(err)
			}
		}
		sameTables(t, a, b)
		sameEnds(t, a, b)
	})
}

// BenchmarkBeaconRound is the beacon exchange of an N=900 deployment at
// the default configuration, one op per scheduler event (a beacon tick),
// under churn_repair's fault rates: every 20th node is down throughout,
// and every 20 virtual seconds 8 more crash at second 3 and recover at
// second 12 (0.8 faults a second) while a 0.3 loss burst covers the
// middle of the field from second 6 to 10. refProtocol runs the same plan
// on a second universe, one virtual second after each second of Protocol
// so that both see the same phase of the host, and ref/new reports how
// many times faster Protocol ran. `make micro-bench` gates allocs/op at
// 0, and the benchmark fails below beaconFloor.
func BenchmarkBeaconRound(b *testing.B) {
	l, err := field.Generate(field.DefaultSpec(900), rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	type universe struct {
		sched  *sim.Scheduler
		net    *network.Network
		p      table
		cancel func()
	}
	crash := func(u *universe, id int) {
		u.net.FailNode(id)
		u.p.Fail(id)
	}
	mk := func(ref bool) *universe {
		u := &universe{sched: sim.NewScheduler(), net: network.New(l)}
		if ref {
			u.p = newRef(u.net, u.sched, rng.New(12), Config{})
		} else {
			u.p = New(u.net, u.sched, rng.New(12), Config{})
		}
		for id := 0; id < l.N(); id += 20 {
			crash(u, id)
		}
		u.p.Start()
		return u
	}
	c, r := l.Side/2, l.Side/10
	burst := geo.RectFromCorners(geo.Pt(c-r, c-r), geo.Pt(c+r, c+r))
	faults := func(u *universe, sec int) {
		switch sec % 20 {
		case 3:
			for id := 10; id < l.N(); id += l.N() / 8 {
				crash(u, id)
			}
		case 6:
			u.cancel = u.net.AddRegionLoss(burst, 0.3, rng.New(int64(sec)))
		case 10:
			u.cancel()
		case 12:
			for id := 10; id < l.N(); id += l.N() / 8 {
				u.net.RecoverNode(id)
				u.p.Recover(id)
			}
		}
	}
	// second runs u up to the end of virtual second sec, or until it has
	// fired budget events.
	second := func(u *universe, sec, budget int) time.Duration {
		start := time.Now()
		if err := u.sched.RunUntil(time.Duration(sec)*time.Second, uint64(budget)); err != nil && !errors.Is(err, sim.ErrBudget) {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	cur, ref := mk(false), mk(true)
	var tCur, tRef time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for sec, done := 1, 0; done < b.N; sec++ {
		b.StopTimer()
		faults(cur, sec)
		faults(ref, sec)
		fired := cur.sched.Executed()
		b.StartTimer()
		tCur += second(cur, sec, b.N-done)
		b.StopTimer()
		tRef += second(ref, sec, b.N-done)
		done += int(cur.sched.Executed() - fired)
		b.StartTimer()
	}
	b.StopTimer()
	if got, want := cur.net.Snapshot(), ref.net.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		b.Fatalf("radio counters %+v, reference %+v", got, want)
	}
	speedup := float64(tRef) / float64(tCur)
	b.ReportMetric(speedup, "ref/new")
	if b.N >= 100*l.N() && speedup < beaconFloor {
		b.Fatalf("Protocol is %.2f× refProtocol, below the %.1f× floor", speedup, beaconFloor)
	}
}

// beaconFloor is the least speedup over refProtocol BenchmarkBeaconRound
// accepts: the stamps must never be slower than per-edge writes (ten runs
// on a 2-vCPU Xeon @ 2.10 GHz: 1.06–1.08×; the radio and the scheduler,
// which both pay alike, are most of each beacon).
const beaconFloor = 1.0
