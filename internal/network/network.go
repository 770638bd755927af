// Package network models the radio layer of the sensor network: per-hop
// message transmission over the unit-disc links of a field.Layout, with
// message, byte, energy, and per-node load accounting.
//
// The paper's evaluation metric is the number of messages exchanged among
// sensors while processing queries; Counters captures that, split by
// traffic class so that insertion and query costs can be reported
// separately (§5.2). Energy uses the first-order radio model common in the
// WSN literature, which the hotspot experiments use to reason about node
// lifetime.
package network

import (
	"errors"
	"fmt"
	"math"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/metrics"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

// Kind classifies traffic for accounting.
type Kind int

// Traffic classes.
const (
	KindInsert  Kind = iota + 1 // event storage traffic
	KindQuery                   // query dissemination
	KindReply                   // result return traffic
	KindControl                 // beacons, workload-sharing coordination
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindQuery:
		return "query"
	case KindReply:
		return "reply"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every traffic class in display order.
func Kinds() []Kind {
	return []Kind{KindInsert, KindQuery, KindReply, KindControl}
}

// EnergyModel holds the first-order radio model parameters. Transmitting b
// bits over distance d costs Elec·b + Amp·b·d²; receiving costs Elec·b.
type EnergyModel struct {
	// Elec is the electronics energy per bit in joules (default 50 nJ).
	Elec float64
	// Amp is the amplifier energy per bit per m² in joules (default 100 pJ).
	Amp float64
	// Budget, when positive, is each node's battery in joules. A node
	// whose radio energy crosses the budget is depleted: it stops
	// transmitting and receiving, and the depletion watcher (if any) is
	// notified once. Zero means unlimited energy (the paper's model).
	Budget float64
}

// DefaultEnergyModel returns the standard first-order parameters.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{Elec: 50e-9, Amp: 100e-12}
}

// Validate rejects physically meaningless radio parameters. Negative
// per-bit energies would let traffic *recharge* nodes and silently corrupt
// every lifetime metric downstream.
func (m EnergyModel) Validate() error {
	if m.Elec < 0 || math.IsNaN(m.Elec) {
		return fmt.Errorf("network: electronics energy must be ≥ 0 J/bit, got %v", m.Elec)
	}
	if m.Amp < 0 || math.IsNaN(m.Amp) {
		return fmt.Errorf("network: amplifier energy must be ≥ 0 J/bit/m², got %v", m.Amp)
	}
	if m.Budget < 0 || math.IsNaN(m.Budget) {
		return fmt.Errorf("network: energy budget must be ≥ 0 J, got %v", m.Budget)
	}
	return nil
}

// Counters aggregates traffic totals.
type Counters struct {
	// Messages counts transmissions (one per hop) by kind.
	Messages map[Kind]uint64
	// Bytes counts payload bytes transmitted by kind.
	Bytes map[Kind]uint64
	// EnergyJ is the total radio energy spent in joules (tx + rx).
	EnergyJ float64
	// Drops counts frames the sender paid for that never arrived — the
	// lossy-link and burst models plus frames sent into dead receivers.
	Drops uint64
}

// Total returns the total number of messages across all kinds.
func (c Counters) Total() uint64 {
	var t uint64
	for _, v := range c.Messages {
		t += v
	}
	return t
}

// TotalData returns messages excluding control traffic, the paper's query
// processing cost metric.
func (c Counters) TotalData() uint64 {
	return c.Total() - c.Messages[KindControl]
}

// Network is the radio layer over a deployment.
type Network struct {
	layout *field.Layout
	energy EnergyModel

	msgs    [numKinds]uint64
	bytes   [numKinds]uint64
	energyJ float64

	// nodeTx/nodeRx track per-node load for the hotspot experiments.
	nodeTx []uint64
	nodeRx []uint64
	// nodeDrop counts, per sender, frames paid for that never arrived.
	nodeDrop []uint64
	drops    uint64
	// nodeEnergy tracks radio energy per node for lifetime analysis.
	nodeEnergy []float64

	// mtu, when positive, fragments payloads into ⌈size/mtu⌉ frames, each
	// counted as one message.
	mtu int

	// lossRate, when positive, drops each transmission with this
	// probability (drawn from lossSrc). Dropped frames still cost the
	// sender energy and count as messages — the receiver just never gets
	// them.
	lossRate float64
	lossSrc  *rng.Source

	// bursts are transient regional loss episodes (chaos injection): a
	// frame whose sender or receiver sits inside an active burst region is
	// dropped independently with the burst's rate.
	bursts []*regionLoss

	// dead marks crashed nodes: they neither transmit nor receive.
	dead []bool
	// depleted marks nodes whose radio energy crossed the battery budget.
	depleted  []bool
	onDeplete func(id int)

	// missedBuf backs the slice Broadcast returns; beaconing protocols
	// broadcast once per node per round, so reusing one buffer removes an
	// allocation per beacon.
	missedBuf []int

	// tracer, when non-nil, receives one record per transmission. The
	// nil tracer costs one pointer compare on the hot path.
	tracer *trace.Tracer
}

// regionLoss is one active loss burst. Per-frame drop decisions hash
// (seed, from, to, nth frame on that directed link) instead of drawing
// from a shared rng stream, so whether a given frame drops does not
// depend on how traffic from unrelated links interleaves with it —
// message totals stay comparable across runs that reorder iteration.
type regionLoss struct {
	rect geo.Rect
	rate float64
	seed uint64
	// nth counts frames per directed link inside the burst.
	nth map[[2]int]uint64
}

// ErrFrameLost reports a transmission dropped by the lossy-link model.
// The frame was sent (and charged); it was not received.
var ErrFrameLost = errors.New("network: frame lost")

// ErrNodeDown reports a transmission involving a crashed or
// battery-depleted node. Unlike ErrFrameLost, retransmitting cannot help:
// the sender's link layer declares the neighbour dead after its ACK
// timeout, so callers should treat the hop as unreachable, not lossy.
var ErrNodeDown = errors.New("network: node down")

// Option configures a Network.
type Option interface {
	apply(*Network)
}

type optionFunc func(*Network)

func (f optionFunc) apply(n *Network) { f(n) }

// WithEnergyModel overrides the default radio energy model. Invalid
// parameters (negative or NaN per-bit energies) are a programming error
// and panic; pre-check with EnergyModel.Validate when the model comes
// from external configuration.
func WithEnergyModel(m EnergyModel) Option {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return optionFunc(func(n *Network) { n.energy = m })
}

// WithTracer attaches a structured-event tracer: every Transmit and
// Broadcast is recorded as a per-hop trace event under the tracer's
// current span.
func WithTracer(t *trace.Tracer) Option {
	return optionFunc(func(n *Network) { n.tracer = t })
}

// SetTracer attaches (or replaces) the per-hop tracer after
// construction: the hook the load harness's autopsy uses on deployments
// built without one.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer = t }

// WithMTU enables link-layer fragmentation: payloads larger than mtu
// bytes are split into ⌈size/mtu⌉ frames, each counted as one message.
// Real mote radios carry 30–100 byte frames; the default (no
// fragmentation) matches the paper's one-message-per-packet accounting.
func WithMTU(mtu int) Option {
	return optionFunc(func(n *Network) { n.mtu = mtu })
}

// WithLossRate makes every transmission fail independently with
// probability p (0 ≤ p < 1), deterministically from the given source.
// Senders still pay for lost frames; link-layer retransmission is the
// caller's job (dcs.Unicast retries automatically).
func WithLossRate(p float64, src *rng.Source) Option {
	return optionFunc(func(n *Network) {
		n.lossRate = p
		n.lossSrc = src
	})
}

// WithMetrics registers the radio's live metrics on reg: per-node
// tx/rx/dropped frame counters, per-kind message and byte counters, and
// per-node energy gauges, all read from the network's own counters at
// snapshot time, so a metered network transmits exactly as a plain one.
// Dropped frames are attributed to the *sender* — the node that paid for
// the frame and whose ARQ will retry — covering both lossy-link losses
// and frames sent into dead receivers. A nil registry attaches nothing.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(n *Network) {
		if reg == nil {
			return
		}
		nn, nodes := n.layout.N(), metrics.NodeLabels(n.layout.N())
		perNode := func(name, help string, v []uint64) {
			reg.CounterVecFunc(name, help, "node", nodes, func(i int) uint64 { return v[i] })
		}
		perNode("net_tx_frames_total", "frames transmitted per node", n.nodeTx)
		perNode("net_rx_frames_total", "frames received per node", n.nodeRx)
		perNode("net_dropped_frames_total", "frames lost in flight, attributed to the sender", n.nodeDrop)
		kinds := make([]string, 0, len(Kinds()))
		for _, k := range Kinds() {
			kinds = append(kinds, k.String())
		}
		perKind := func(name, help string, v *[numKinds]uint64) {
			reg.CounterVecFunc(name, help, "kind", kinds, func(i int) uint64 { return v[i+1] })
		}
		perKind("net_messages_total", "transmissions by traffic kind", &n.msgs)
		perKind("net_bytes_total", "payload bytes by traffic kind", &n.bytes)
		reg.NodeGaugeFunc("net_node_energy_joules", "radio energy spent per node", nn, n.NodeEnergy)
		reg.GaugeFunc("net_energy_joules", "total radio energy spent", func() float64 { return n.energyJ })
		reg.GaugeFunc("net_nodes_down", "nodes currently crashed or battery-depleted", func() float64 {
			var down float64
			for i := range n.dead {
				if n.dead[i] || n.depleted[i] {
					down++
				}
			}
			return down
		})
	})
}

// New builds a Network over layout.
func New(layout *field.Layout, opts ...Option) *Network {
	n := &Network{
		layout:     layout,
		energy:     DefaultEnergyModel(),
		nodeTx:     make([]uint64, layout.N()),
		nodeRx:     make([]uint64, layout.N()),
		nodeDrop:   make([]uint64, layout.N()),
		nodeEnergy: make([]float64, layout.N()),
		dead:       make([]bool, layout.N()),
		depleted:   make([]bool, layout.N()),
	}
	for _, o := range opts {
		o.apply(n)
	}
	return n
}

// Layout returns the deployment the network runs over.
func (n *Network) Layout() *field.Layout { return n.layout }

// LinkError reports an attempted transmission between nodes that are not
// radio neighbours.
type LinkError struct {
	From, To int
	Dist     float64
}

// Error implements error.
func (e *LinkError) Error() string {
	return fmt.Sprintf("network: no link %d→%d (distance %.1f m)", e.From, e.To, e.Dist)
}

// InRange reports whether from and to share a radio link.
func (n *Network) InRange(from, to int) bool {
	r := n.layout.Spec.RadioRange
	return n.layout.Pos(from).Dist2(n.layout.Pos(to)) <= r*r
}

// FailNode crashes a node: it stops transmitting and receiving until
// RecoverNode. Out-of-range ids are ignored.
func (n *Network) FailNode(id int) {
	if id >= 0 && id < len(n.dead) {
		if !n.dead[id] {
			// The crash marker opens the node's repair-interference
			// window for latency attribution.
			n.tracer.Record(trace.TypeFault, id, 0, "crash")
		}
		n.dead[id] = true
	}
}

// RecoverNode brings a crashed node back on the air. Depletion is not
// undone: a node with an empty battery stays silent.
func (n *Network) RecoverNode(id int) {
	if id >= 0 && id < len(n.dead) {
		if n.dead[id] {
			// The recovery marker closes any still-open
			// repair-interference window for the node.
			n.tracer.Record(trace.TypeFault, id, 0, "recover")
		}
		n.dead[id] = false
	}
}

// Alive reports whether the node is on the air: neither crashed nor
// battery-depleted.
func (n *Network) Alive(id int) bool {
	return !n.dead[id] && !n.depleted[id]
}

// Depleted reports whether the node's radio energy has crossed the
// battery budget.
func (n *Network) Depleted(id int) bool { return n.depleted[id] }

// OnDepleted registers fn to be called once per node, at the moment its
// radio energy crosses the battery budget. The callback fires inside
// Transmit/Broadcast; implementations that mutate protocol state should
// defer the heavy work to a scheduler event.
func (n *Network) OnDepleted(fn func(id int)) { n.onDeplete = fn }

// AddRegionLoss opens a transient regional loss burst: every frame whose
// sender or receiver lies inside rect is dropped independently with the
// given probability, on top of the base loss rate. src is consumed once
// to seed the burst; per-frame decisions then hash (seed, link, frame
// index on that link), so a frame's fate depends only on its own link's
// history — not on how traffic elsewhere interleaves with it. That
// iteration-order stability is what lets experiment tables report burst
// losses without the totals becoming order-dependent. The returned
// cancel function ends the burst.
func (n *Network) AddRegionLoss(rect geo.Rect, rate float64, src *rng.Source) (cancel func()) {
	b := &regionLoss{rect: rect, rate: rate, seed: uint64(src.Int63()), nth: make(map[[2]int]uint64)}
	n.bursts = append(n.bursts, b)
	return func() {
		for i, cur := range n.bursts {
			if cur == b {
				n.bursts = append(n.bursts[:i], n.bursts[i+1:]...)
				return
			}
		}
	}
}

// hashUnit maps (seed, from, to, nth) to a uniform value in [0,1) via a
// splitmix64 finalizer — a stateless per-frame coin flip.
func hashUnit(seed uint64, from, to int, nth uint64) float64 {
	x := seed ^ uint64(from)*0x9E3779B97F4A7C15 ^ uint64(to)*0xC2B2AE3D27D4EB4F ^ nth*0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// dropFrame draws whether the frame from→to is lost to the base loss
// model or any active regional burst.
func (n *Network) dropFrame(from, to int) bool {
	if n.lossRate > 0 && n.lossSrc.Bool(n.lossRate) {
		return true
	}
	for _, b := range n.bursts {
		if b.rect.ContainsClosed(n.layout.Pos(from)) || b.rect.ContainsClosed(n.layout.Pos(to)) {
			k := [2]int{from, to}
			i := b.nth[k]
			b.nth[k] = i + 1
			if hashUnit(b.seed, from, to, i) < b.rate {
				return true
			}
		}
	}
	return false
}

// countDrop books a lost frame against its sender.
func (n *Network) countDrop(from int, frames uint64) {
	n.nodeDrop[from] += frames
	n.drops += frames
}

// charge books radio energy against a node. With a battery budget
// (budgeted: Budget > 0) a node whose energy crosses it is marked
// depleted, and the watcher is notified once.
func (n *Network) charge(id int, joules float64, budgeted bool) {
	n.energyJ += joules
	n.nodeEnergy[id] += joules
	if budgeted && !n.depleted[id] && n.nodeEnergy[id] >= n.energy.Budget {
		n.depleted[id] = true
		if n.onDeplete != nil {
			n.onDeplete(id)
		}
	}
}

// frames returns how many frames a payload of the given size takes.
func (n *Network) frames(payloadBytes int) uint64 {
	if n.mtu > 0 && payloadBytes > n.mtu {
		return uint64((payloadBytes + n.mtu - 1) / n.mtu)
	}
	return 1
}

// Transmit records a single-hop transmission of a payload of the given
// size from one node to a radio neighbour: TransmitPath over the one hop.
func (n *Network) Transmit(from, to int, kind Kind, payloadBytes int) error {
	hop := [2]int{from, to}
	_, err := n.TransmitPath(hop[:], kind, payloadBytes)
	return err
}

// TransmitPath transmits a payload along a routed path, one radio hop
// path[i]→path[i+1] at a time, and stops at the first hop that fails,
// returning its error and the number of hops delivered before it. The
// effect is exactly that of Transmit on each hop in turn — the same
// counters, drops, loss draws, energy added in the same order, and the
// same errors — except that the per-kind totals are added once per call.
// Beside Broadcast it is the only place where traffic is counted.
func (n *Network) TransmitPath(path []int, kind Kind, payloadBytes int) (delivered int, err error) {
	frames, charged := n.frames(payloadBytes), uint64(0)
	bits := float64(payloadBytes * 8)
	elecBits, ampBits := n.energy.Elec*bits, n.energy.Amp*bits
	r := n.layout.Spec.RadioRange
	r2, pos := r*r, n.layout.Positions
	lossy, traced, budgeted := n.lossRate > 0 || len(n.bursts) > 0, n.tracer != nil, n.energy.Budget > 0
	for ; delivered < len(path)-1; delivered++ {
		from, to := path[delivered], path[delivered+1]
		if from == to {
			err = fmt.Errorf("network: self-transmission at node %d", from)
			break
		}
		if !n.Alive(from) {
			err = fmt.Errorf("network: sender %d: %w", from, ErrNodeDown)
			break
		}
		d2 := pos[from].Dist2(pos[to])
		if !(d2 <= r2) {
			err = &LinkError{From: from, To: to, Dist: pos[from].Dist(pos[to])}
			break
		}
		charged++
		n.nodeTx[from] += frames
		n.charge(from, elecBits+ampBits*d2, budgeted)
		if !n.Alive(to) {
			// The sender paid for a frame nobody will ever acknowledge; its
			// link layer declares the neighbour dead after the ACK timeout.
			err = fmt.Errorf("network: receiver %d: %w", to, ErrNodeDown)
		} else if lossy && n.dropFrame(from, to) {
			// The frame left the sender's radio but never arrived: the
			// sender paid, the receiver heard nothing.
			err = ErrFrameLost
		}
		if err != nil {
			n.countDrop(from, frames)
			if traced {
				n.tracer.Hop(from, to, kind.String(), payloadBytes, int(frames), true)
			}
			break
		}
		n.nodeRx[to] += frames
		n.charge(to, elecBits, budgeted)
		if traced {
			n.tracer.Hop(from, to, kind.String(), payloadBytes, int(frames), false)
		}
	}
	n.msgs[kind] += frames * charged
	n.bytes[kind] += uint64(payloadBytes) * charged
	return delivered, err
}

// Broadcast transmits one frame from a node to every radio neighbour at
// once (the wireless broadcast advantage): a single transmission, one
// reception per neighbour. Each reception is subject to the same lossy
// model as unicast — independent per-receiver drops — so broadcast-based
// beaconing pays the same reality tax; crashed or depleted neighbours
// hear nothing. It returns the ascending positions in
// Layout().Neighbors(from) of the neighbours it missed (dead, depleted or
// dropped), valid until the next Broadcast; a broadcast from a dead node
// is silent, free, and misses all. Used by beaconing protocols.
func (n *Network) Broadcast(from int, kind Kind, payloadBytes int) (missed []int) {
	nbrs := n.layout.Neighbors(from)
	missed = n.missedBuf[:0]
	if !n.Alive(from) {
		for k := range nbrs {
			missed = append(missed, k)
		}
		n.missedBuf = missed
		return missed
	}
	frames := n.frames(payloadBytes)
	n.msgs[kind] += frames
	n.bytes[kind] += uint64(payloadBytes)
	n.nodeTx[from] += frames

	bits := float64(payloadBytes * 8)
	r := n.layout.Spec.RadioRange
	// A broadcast is amplified to full radio range.
	budgeted := n.energy.Budget > 0
	n.charge(from, n.energy.Elec*bits+n.energy.Amp*bits*r*r, budgeted)
	rx := n.energy.Elec * bits
	lossy := n.lossRate > 0 || len(n.bursts) > 0
	dead, depleted, nodeRx, nodeEnergy := n.dead, n.depleted, n.nodeRx, n.nodeEnergy
	lost := 0
	// Without a battery no reception can deplete anyone, so the energy
	// total is summed in a local, in the same order as charge adds it.
	energyJ := n.energyJ
	for k, v := range nbrs {
		if dead[v] || depleted[v] {
			missed = append(missed, k)
			continue
		}
		if lossy && n.dropFrame(from, v) {
			lost++
			n.countDrop(from, frames)
			missed = append(missed, k)
			continue
		}
		nodeRx[v] += frames
		if budgeted {
			n.charge(v, rx, true)
			continue
		}
		energyJ += rx
		nodeEnergy[v] += rx
	}
	if !budgeted {
		n.energyJ = energyJ
	}
	if n.tracer != nil {
		n.tracer.Broadcast(from, kind.String(), payloadBytes, int(frames), len(nbrs)-len(missed), lost)
	}
	n.missedBuf = missed
	return missed
}

// NodeEnergy returns the radio energy node id has spent, in joules.
func (n *Network) NodeEnergy(id int) float64 { return n.nodeEnergy[id] }

// NodeEnergies returns a copy of the per-node energy vector.
func (n *Network) NodeEnergies() []float64 {
	out := make([]float64, len(n.nodeEnergy))
	copy(out, n.nodeEnergy)
	return out
}

// Messages returns the running transmission count for one traffic kind.
// Unlike Snapshot, it allocates nothing: per-query cost loops take the
// before/after difference of the kinds they care about directly.
func (n *Network) Messages(kind Kind) uint64 { return n.msgs[kind] }

// PayloadBytes returns the running payload-byte count for one traffic
// kind, the allocation-free companion of Messages.
func (n *Network) PayloadBytes(kind Kind) uint64 { return n.bytes[kind] }

// EnergyJ returns the total radio energy spent so far in joules.
func (n *Network) EnergyJ() float64 { return n.energyJ }

// Snapshot returns a copy of the current traffic counters.
func (n *Network) Snapshot() Counters {
	c := Counters{
		Messages: make(map[Kind]uint64, int(numKinds)),
		Bytes:    make(map[Kind]uint64, int(numKinds)),
		EnergyJ:  n.energyJ,
		Drops:    n.drops,
	}
	for _, k := range Kinds() {
		if n.msgs[k] > 0 {
			c.Messages[k] = n.msgs[k]
		}
		if n.bytes[k] > 0 {
			c.Bytes[k] = n.bytes[k]
		}
	}
	return c
}

// Diff returns the counters accumulated since an earlier snapshot.
func (n *Network) Diff(since Counters) Counters {
	cur := n.Snapshot()
	out := Counters{
		Messages: make(map[Kind]uint64, len(cur.Messages)),
		Bytes:    make(map[Kind]uint64, len(cur.Bytes)),
		EnergyJ:  cur.EnergyJ - since.EnergyJ,
		Drops:    cur.Drops - since.Drops,
	}
	for k, v := range cur.Messages {
		if d := v - since.Messages[k]; d > 0 {
			out.Messages[k] = d
		}
	}
	for k, v := range cur.Bytes {
		if d := v - since.Bytes[k]; d > 0 {
			out.Bytes[k] = d
		}
	}
	return out
}

// NodeLoad returns the transmission and reception counts of node id.
func (n *Network) NodeLoad(id int) (tx, rx uint64) {
	return n.nodeTx[id], n.nodeRx[id]
}

// NodeDrops returns the frames node id paid for that never arrived.
func (n *Network) NodeDrops(id int) uint64 { return n.nodeDrop[id] }

// Drops returns the total number of lost frames.
func (n *Network) Drops() uint64 { return n.drops }

// MaxNodeLoad returns the highest tx+rx total over all nodes and the node
// that bears it — the hotspot metric.
func (n *Network) MaxNodeLoad() (node int, load uint64) {
	node = -1
	for i := range n.nodeTx {
		if l := n.nodeTx[i] + n.nodeRx[i]; l > load || node < 0 {
			node, load = i, l
		}
	}
	return node, load
}
