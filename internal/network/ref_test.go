package network

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/metrics"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

// refTransmit is the reference for one hop of TransmitPath: Transmit as it
// stood before the path charge, one call per hop with every counter,
// energy charge and test made in place.
func refTransmit(n *Network, from, to int, kind Kind, payloadBytes int) error {
	if from == to {
		return fmt.Errorf("network: self-transmission at node %d", from)
	}
	if !n.Alive(from) {
		return fmt.Errorf("network: sender %d: %w", from, ErrNodeDown)
	}
	if !n.InRange(from, to) {
		return &LinkError{From: from, To: to, Dist: n.layout.Pos(from).Dist(n.layout.Pos(to))}
	}
	frames := uint64(1)
	if n.mtu > 0 && payloadBytes > n.mtu {
		frames = uint64((payloadBytes + n.mtu - 1) / n.mtu)
	}
	n.msgs[kind] += frames
	n.bytes[kind] += uint64(payloadBytes)
	n.nodeTx[from] += frames

	bits := float64(payloadBytes * 8)
	d2 := n.layout.Pos(from).Dist2(n.layout.Pos(to))
	refCharge(n, from, n.energy.Elec*bits+n.energy.Amp*bits*d2)
	if !n.Alive(to) {
		n.nodeDrop[from] += frames
		n.drops += frames
		if n.tracer != nil {
			n.tracer.Hop(from, to, kind.String(), payloadBytes, int(frames), true)
		}
		return fmt.Errorf("network: receiver %d: %w", to, ErrNodeDown)
	}
	if n.dropFrame(from, to) {
		n.nodeDrop[from] += frames
		n.drops += frames
		if n.tracer != nil {
			n.tracer.Hop(from, to, kind.String(), payloadBytes, int(frames), true)
		}
		return ErrFrameLost
	}
	n.nodeRx[to] += frames
	refCharge(n, to, n.energy.Elec*bits)
	if n.tracer != nil {
		n.tracer.Hop(from, to, kind.String(), payloadBytes, int(frames), false)
	}
	return nil
}

// refCharge is the reference for charge: chargeTx and chargeRx as they
// stood, the battery checked on every charge.
func refCharge(n *Network, id int, joules float64) {
	n.energyJ += joules
	n.nodeEnergy[id] += joules
	if n.energy.Budget <= 0 || n.depleted[id] || n.nodeEnergy[id] < n.energy.Budget {
		return
	}
	n.depleted[id] = true
	if n.onDeplete != nil {
		n.onDeplete(id)
	}
}

// refTransmitPath is the reference for TransmitPath: refTransmit on each
// hop in turn, up to the first that fails.
func refTransmitPath(n *Network, path []int, kind Kind, payloadBytes int) (int, error) {
	for i := 0; i+1 < len(path); i++ {
		if err := refTransmit(n, path[i], path[i+1], kind, payloadBytes); err != nil {
			return i, err
		}
	}
	return max(len(path)-1, 0), nil
}

// refBroadcast is the reference for Broadcast: Broadcast as it stood,
// returning the neighbours reached (in a fresh slice) rather than the
// slots missed. One transmission, one reception per alive neighbour,
// each subject to the loss model; a dead sender is silent and free.
func refBroadcast(n *Network, from int, kind Kind, payloadBytes int) []int {
	if !n.Alive(from) {
		return nil
	}
	nbrs := n.layout.Neighbors(from)
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
	var reached []int
	lost := 0
	for _, v := range nbrs {
		if !n.Alive(v) {
			continue
		}
		if n.dropFrame(from, v) {
			lost++
			n.countDrop(from, frames)
			continue
		}
		n.nodeRx[v] += frames
		n.charge(v, rx, budgeted)
		reached = append(reached, v)
	}
	if n.tracer != nil {
		n.tracer.Broadcast(from, kind.String(), payloadBytes, int(frames), len(reached), lost)
	}
	return reached
}

// pathTwin is one of two networks built alike, one charged by
// TransmitPath and one by the reference.
type pathTwin struct {
	net  *Network
	loss *rng.Source
	reg  *metrics.Registry
	tr   *trace.Tracer
}

// newPathTwin builds a network over l with the given loss rate, an
// energy budget (0: none), a depletion watcher that crashes the next
// node, MTU fragmentation and, as asked, an open burst over the left
// third of the field, a tracer and a metrics registry.
func newPathTwin(l *field.Layout, seed int64, loss, budget float64, burst, traced, metered bool) *pathTwin {
	tw := &pathTwin{loss: rng.New(seed)}
	opts := []Option{WithLossRate(loss, tw.loss), WithMTU(24),
		WithEnergyModel(EnergyModel{Elec: 50e-9, Amp: 100e-12, Budget: budget})}
	if traced {
		tw.tr = trace.New(nil)
		opts = append(opts, WithTracer(tw.tr))
	}
	if metered {
		tw.reg = metrics.New()
		opts = append(opts, WithMetrics(tw.reg))
	}
	tw.net = New(l, opts...)
	if burst {
		tw.net.AddRegionLoss(geo.RectFromCorners(geo.Pt(0, 0), geo.Pt(l.Side/3, l.Side)), 0.3, rng.New(seed+1))
	}
	tw.net.OnDepleted(func(id int) { tw.net.FailNode((id + 1) % l.N()) })
	return tw
}

// samePathTwins fails unless a and b are indistinguishable: counters,
// per-node loads, drops and energies to the bit, the next loss draw,
// the depletion marks, the metrics exposition and the trace.
func samePathTwins(t *testing.T, a, b *pathTwin) {
	t.Helper()
	sa, sb := a.net.Snapshot(), b.net.Snapshot()
	if fmt.Sprint(sa.Messages, sa.Bytes, sa.Drops) != fmt.Sprint(sb.Messages, sb.Bytes, sb.Drops) ||
		math.Float64bits(sa.EnergyJ) != math.Float64bits(sb.EnergyJ) {
		t.Fatalf("snapshot %+v, reference %+v", sa, sb)
	}
	ea, eb := a.net.NodeEnergies(), b.net.NodeEnergies()
	for id := range ea {
		txa, rxa := a.net.NodeLoad(id)
		txb, rxb := b.net.NodeLoad(id)
		if txa != txb || rxa != rxb || a.net.NodeDrops(id) != b.net.NodeDrops(id) ||
			math.Float64bits(ea[id]) != math.Float64bits(eb[id]) ||
			a.net.Alive(id) != b.net.Alive(id) || a.net.Depleted(id) != b.net.Depleted(id) {
			t.Fatalf("node %d: tx/rx/drops/energy %d/%d/%d/%v, reference %d/%d/%d/%v",
				id, txa, rxa, a.net.NodeDrops(id), ea[id], txb, rxb, b.net.NodeDrops(id), eb[id])
		}
	}
	if da, db := a.loss.Int63(), b.loss.Int63(); da != db {
		t.Fatalf("next loss draw %d, reference %d", da, db)
	}
	if xa, xb := a.reg.Snapshot().Text(), b.reg.Snapshot().Text(); xa != xb {
		t.Fatalf("exposition differs:\n%s\nreference:\n%s", xa, xb)
	}
	var ta, tb bytes.Buffer
	if err := trace.WriteJSONL(&ta, a.tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&tb, b.tr.Events()); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatalf("trace differs:\n%s\nreference:\n%s", ta.String(), tb.String())
	}
}

// FuzzTransmitPath holds TransmitPath to refTransmitPath on twin networks
// over a random 24-node deployment: random paths mostly along radio links,
// with self-hops, hops out of radio range and dead nodes mixed in, under a
// loss rate, an open burst, an energy budget small enough to deplete nodes
// mid-path (whose watcher crashes another node), with the tracer and the
// metrics registry on or off. Each input charges several paths in a row on
// the same pair. Broadcasts from the path's current node, held to
// refBroadcast, are mixed in between hops.
func FuzzTransmitPath(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0), uint16(8), []byte{2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(2), uint8(30), uint16(3), uint8(7), uint16(100), []byte{2, 0, 3, 1, 4, 5, 0x40, 2, 3, 4, 5, 6, 7})
	f.Add(int64(3), uint8(60), uint16(1), uint8(1), uint16(16), []byte{5, 5, 5, 5, 0x40, 5, 5, 5, 5, 5, 5, 5})
	f.Add(int64(4), uint8(10), uint16(12), uint8(6), uint16(40), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 0x40, 6, 5})
	f.Add(int64(5), uint8(20), uint16(2), uint8(7), uint16(16), []byte{0x80, 3, 0x80, 4, 0x81, 5, 0x40, 0x80, 7, 1, 0x80, 0x80, 2, 0x80})
	f.Add(int64(-18), uint8(20), uint16(2), uint8(7), uint16(16), []byte{'0', '2', '9', 0x81, '0'})
	f.Add(int64(-30), uint8(99), uint16(0), uint8(60), uint16(50), []byte{0x98, '0'})
	f.Fuzz(func(t *testing.T, seed int64, lossPct uint8, budgetUJ uint16, flags uint8, payload uint16, steps []byte) {
		if len(steps) > 256 {
			return
		}
		src := rng.New(seed)
		pts := make([]geo.Point, 24)
		for i := range pts {
			pts[i] = geo.Pt(src.Uniform(0, 120), src.Uniform(0, 120))
		}
		l, err := field.FromPositions(pts, 120, 40)
		if err != nil {
			t.Skip(err)
		}
		loss := float64(lossPct%90) / 100
		budget := float64(budgetUJ%64) * 1e-6
		a := newPathTwin(l, seed, loss, budget, flags&4 != 0, flags&1 != 0, flags&2 != 0)
		b := newPathTwin(l, seed, loss, budget, flags&4 != 0, flags&1 != 0, flags&2 != 0)
		for _, tw := range []*pathTwin{a, b} {
			tw.net.FailNode(int(uint64(seed) % 24))
		}
		kind, size := Kinds()[int(uint64(seed)>>8)%len(Kinds())], int(payload%200)
		cur, path := src.Intn(l.N()), []int(nil)
		for i, s := range steps {
			path = append(path, cur)
			switch nbrs := l.Neighbors(cur); {
			case s&0x40 != 0 || i == len(steps)-1: // end the path here
				da, erra := a.net.TransmitPath(path, kind, size)
				db, errb := refTransmitPath(b.net, path, kind, size)
				if da != db || fmt.Sprint(erra) != fmt.Sprint(errb) ||
					errors.Is(erra, ErrNodeDown) != errors.Is(errb, ErrNodeDown) ||
					errors.Is(erra, ErrFrameLost) != errors.Is(errb, ErrFrameLost) {
					t.Fatalf("path %v: delivered %d, %v; reference %d, %v", path, da, erra, db, errb)
				}
				samePathTwins(t, a, b)
				path = path[:0]
			case s&0xc0 == 0x80: // a broadcast from cur between two hops
				missed := a.net.Broadcast(cur, kind, size)
				reached := refBroadcast(b.net, cur, kind, size)
				var heard []int
				for k, v := range nbrs {
					if len(missed) > 0 && missed[0] == k {
						missed = missed[1:]
						continue
					}
					heard = append(heard, v)
				}
				if len(missed) > 0 || fmt.Sprint(heard) != fmt.Sprint(reached) {
					t.Fatalf("broadcast from %d reached %v (left %v missed), reference %v", cur, heard, missed, reached)
				}
				samePathTwins(t, a, b)
			case s%16 == 0: // a self-hop
			case s%16 == 1 || len(nbrs) == 0: // most likely out of radio range
				cur = int(s) % l.N()
			default:
				cur = nbrs[int(s)%len(nbrs)]
			}
		}
	})
}
