package dcs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

// refUnicastOpts is the reference for UnicastOpts: its body as it stood
// before the path charge and the leg table, every leg routed and every hop
// a separate refTransmitARQ. A self leg at a node whose radio is down
// fails like any leg into a dead node.
func refUnicastOpts(net *network.Network, router *gpsr.Router, from, to int, kind network.Kind, payloadBytes int, opts TxOptions) (int, error) {
	if from == to {
		if !net.Alive(from) {
			return 0, fmt.Errorf("dcs: unicast %d→%d: %w: %w", from, to, network.ErrNodeDown, ErrUnreachable)
		}
		return 0, nil
	}
	var res gpsr.Result
	var err error
	if opts.PathBuf != nil {
		res, err = router.RouteToNodeBuf(from, to, *opts.PathBuf)
		*opts.PathBuf = res.Path
	} else {
		res, err = router.RouteToNode(from, to)
	}
	if err != nil {
		if errors.Is(err, gpsr.ErrUnreachable) {
			return 0, fmt.Errorf("dcs: unicast %d→%d: %v: %w", from, to, err, ErrUnreachable)
		}
		return 0, fmt.Errorf("dcs: unicast %d→%d: %w", from, to, err)
	}
	sent := 0
	for i := 1; i < len(res.Path); i++ {
		if n, err := refTransmitARQ(net, res.Path[i-1], res.Path[i], kind, payloadBytes); err != nil {
			return sent + n, fmt.Errorf("dcs: unicast %d→%d at hop %d: %w", from, to, i, err)
		} else {
			sent += n
		}
	}
	return sent, nil
}

// refTransmitARQ is one logical hop with link-layer retransmission, every
// attempt a Transmit.
func refTransmitARQ(net *network.Network, from, to int, kind network.Kind, payloadBytes int) (int, error) {
	for attempt := 1; ; attempt++ {
		err := net.Transmit(from, to, kind, payloadBytes)
		if err == nil {
			return attempt, nil
		}
		if errors.Is(err, network.ErrNodeDown) {
			return attempt, fmt.Errorf("dcs: hop %d→%d: %v: %w", from, to, err, ErrUnreachable)
		}
		if !errors.Is(err, network.ErrFrameLost) {
			return attempt, err
		}
		if attempt >= MaxRetransmissions {
			return attempt, fmt.Errorf("dcs: hop %d→%d dropped after %d attempts: %w",
				from, to, attempt, ErrHopExhausted)
		}
	}
}

// unicastTwin is one of two radios built alike over one deployment, one
// charged by UnicastOpts and one by refUnicastOpts.
type unicastTwin struct {
	net  *network.Network
	loss *rng.Source
	reg  *metrics.Registry
	tr   *trace.Tracer
}

// newUnicastTwin builds a radio over l with the given loss rate and
// energy budget (0: none), the nodes in down crashed and, as asked, a
// tracer and a metrics registry.
func newUnicastTwin(l *field.Layout, seed int64, loss, budget float64, traced, metered bool, down []int) *unicastTwin {
	tw := &unicastTwin{loss: rng.New(seed)}
	opts := []network.Option{network.WithLossRate(loss, tw.loss),
		network.WithEnergyModel(network.EnergyModel{Elec: 50e-9, Amp: 100e-12, Budget: budget})}
	if traced {
		tw.tr = trace.New(nil)
		opts = append(opts, network.WithTracer(tw.tr))
	}
	if metered {
		tw.reg = metrics.New()
		opts = append(opts, network.WithMetrics(tw.reg))
	}
	tw.net = network.New(l, opts...)
	for _, id := range down {
		tw.net.FailNode(id)
	}
	return tw
}

// state renders everything a unicast can change on the radio, energies
// as bit patterns, plus the next draw of its loss source.
func (tw *unicastTwin) state(t *testing.T) string {
	var b bytes.Buffer
	s := tw.net.Snapshot()
	fmt.Fprintln(&b, s.Messages, s.Bytes, s.Drops, math.Float64bits(s.EnergyJ), tw.loss.Int63())
	for id, e := range tw.net.NodeEnergies() {
		tx, rx := tw.net.NodeLoad(id)
		fmt.Fprintln(&b, id, tx, rx, tw.net.NodeDrops(id), math.Float64bits(e), tw.net.Alive(id))
	}
	b.WriteString(tw.reg.Snapshot().Text())
	if err := trace.WriteJSONL(&b, tw.tr.Events()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzUnicastMatchesReference holds UnicastOpts, with and without a leg
// table, to refUnicastOpts on twin radios over one 100-node deployment: a
// script of routed unicasts, repeated legs and exclusion flips (see
// runUnicastScript) under a loss rate of up to 79 % (where one hop in
// about 40 spends its 16 frames and gives up), with relays
// crashed on the radio but not excluded from routing, nodes excluded from
// both, an energy budget that depletes nodes mid-route, the path buffer,
// the tracer and the metrics registry on or off.
func FuzzUnicastMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0), []byte{1, 2, 3, 4, 5, 6})
	f.Add(int64(2), uint8(40), uint16(0), uint8(7), []byte{9, 3, 200, 17, 88, 4, 61, 5})
	f.Add(int64(3), uint8(20), uint16(40), uint8(3), []byte{50, 60, 70, 80, 90, 10, 20, 30})
	f.Add(int64(4), uint8(70), uint16(300), uint8(12), []byte{33, 44, 55, 66, 77, 88, 99, 11, 22})
	f.Add(int64(5), uint8(10), uint16(0), uint8(8), []byte{12, 80, 200, 0, 250, 40, 200, 0, 250, 40, 200, 0, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, lossPct uint8, budgetUJ uint16, flags uint8, ends []byte) {
		if len(ends) > 64 {
			return
		}
		l, err := field.Generate(field.DefaultSpec(100), rng.New(seed))
		if err != nil {
			t.Skip(err)
		}
		router, src := gpsr.New(l), rng.New(seed+1)
		for i := 0; i < int(flags>>4); i++ {
			router.Exclude(src.Intn(l.N()))
		}
		c := unicastCase{
			loss: float64(lossPct%80) / 100, budget: float64(budgetUJ%512) * 1e-6,
			traced: flags&1 != 0, metered: flags&2 != 0, pathBuf: flags&8 != 0,
		}
		for id := 0; id < l.N(); id++ {
			if router.Excluded(id) || src.Bool(0.03) {
				c.down = append(c.down, id)
			}
		}
		runUnicastScript(t, l, router, seed, c, ends)
	})
}

// BenchmarkUnicastPath is a warm routed unicast on a plain N=900 radio:
// 4096 uniform pairs, routed once before the clock starts, each unicast
// routed again (from the memo) and charged. ns/op and allocs/op are
// UnicastOpts'; refUnicastOpts, which charges hop by hop, runs on a
// second radio over the same pairs, one block of pairs after each block
// of UnicastOpts so that both see the same phase of the host, and
// ref/path reports how many times faster UnicastOpts ran. `make
// micro-bench` gates allocs/op at 0, and the benchmark fails below
// unicastFloor.
func BenchmarkUnicastPath(b *testing.B) {
	l, err := field.Generate(field.DefaultSpec(900), rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	router, src := gpsr.New(l), rng.New(10)
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(l.N()), src.Intn(l.N())}
		if _, err := router.RouteToNode(pairs[i][0], pairs[i][1]); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]int, 0, 64)
	opts := TxOptions{PathBuf: &buf}
	type unicast func(*network.Network, *gpsr.Router, int, int, network.Kind, int, TxOptions) (int, error)
	block := func(net *network.Network, n int, send unicast) time.Duration {
		start := time.Now()
		for _, p := range pairs[:n] {
			if _, err := send(net, router, p[0], p[1], network.KindQuery, 64, opts); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	net, refNet := network.New(l), network.New(l)
	var path, ref time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(pairs) {
		n := min(len(pairs), b.N-done)
		path += block(net, n, UnicastOpts)
		b.StopTimer()
		ref += block(refNet, n, refUnicastOpts)
		b.StartTimer()
	}
	b.StopTimer()
	if got, want := net.Messages(network.KindQuery), refNet.Messages(network.KindQuery); got != want {
		b.Fatalf("UnicastOpts sent %d messages, the reference %d", got, want)
	}
	speedup := float64(ref) / float64(path)
	b.ReportMetric(speedup, "ref/path")
	if b.N >= 10*len(pairs) && speedup < unicastFloor {
		b.Fatalf("UnicastOpts is %.2f× the hop-by-hop reference, below the %.1f× floor", speedup, unicastFloor)
	}
}

// unicastFloor is the least speedup over refUnicastOpts
// BenchmarkUnicastPath accepts: the path charge must never be slower than
// charging hop by hop (ten runs on a 2-vCPU Xeon @ 2.10 GHz: 1.08–1.21×).
const unicastFloor = 1.0
