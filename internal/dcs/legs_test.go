package dcs

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// unicastCase is the radio and the options one unicast script runs
// under: a loss rate, an energy budget (0: none), the nodes crashed on
// the radio at the start, and whether a path buffer, a tracer and a
// metrics registry are attached.
type unicastCase struct {
	loss, budget             float64
	down                     []int
	traced, metered, pathBuf bool
}

// legStats counts what a script did to its leg table: lookups that hit,
// and lookups whose slot held the same leg from an older generation.
type legStats struct{ hits, stale int }

// runUnicastScript drives three radios built alike over l through one
// script: UnicastOpts (a), UnicastOpts with a leg table (c) and
// refUnicastOpts (b). The script is read two bytes at a time. A first
// byte of 0xF0 or more flips the node the second names, on the router and
// on every radio (Exclude and FailNode, or Restore and RecoverNode); one
// of 0xC0 or more repeats the leg of an earlier step the second picks;
// any other pair is a new leg. After every leg the sent count, the error,
// the path buffer (a against b) and everything the radios count must
// agree.
func runUnicastScript(t *testing.T, l *field.Layout, router *gpsr.Router, seed int64, c unicastCase, script []byte) legStats {
	t.Helper()
	twin := func() *unicastTwin {
		return newUnicastTwin(l, seed, c.loss, c.budget, c.traced, c.metered, c.down)
	}
	a, b, cached := twin(), twin(), twin()
	legs := NewLegs(router)
	var bufA, bufB, bufC []int
	var legsRun [][2]int
	var st legStats
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], int(script[i+1])
		var from, to int
		switch {
		case op >= 0xF0:
			id := arg % l.N()
			excluded := router.Excluded(id)
			if excluded {
				router.Restore(id)
			} else {
				router.Exclude(id)
			}
			for _, tw := range []*unicastTwin{a, b, cached} {
				if excluded {
					tw.net.RecoverNode(id)
				} else {
					tw.net.FailNode(id)
				}
			}
			continue
		case op >= 0xC0 && len(legsRun) > 0:
			leg := legsRun[arg%len(legsRun)]
			from, to = leg[0], leg[1]
		default:
			from, to = int(op)%l.N(), arg%l.N()
			legsRun = append(legsRun, [2]int{from, to})
		}
		var optsA, optsB, optsC TxOptions
		if c.pathBuf {
			optsA.PathBuf, optsB.PathBuf, optsC.PathBuf = &bufA, &bufB, &bufC
		}
		optsC.Legs = legs
		if legs.slots != nil && from != to {
			slot, key, gen := legs.slot(from, to)
			switch {
			case slot.key != key || slot.gen == 0:
			case slot.gen == gen:
				st.hits++
			default:
				st.stale++
			}
		}
		sa, erra := UnicastOpts(a.net, router, from, to, network.KindInsert, 40, optsA)
		sc, errc := UnicastOpts(cached.net, router, from, to, network.KindInsert, 40, optsC)
		sb, errb := refUnicastOpts(b.net, router, from, to, network.KindInsert, 40, optsB)
		for _, got := range []struct {
			name string
			sent int
			err  error
		}{{"UnicastOpts", sa, erra}, {"UnicastOpts with legs", sc, errc}} {
			if got.sent != sb || fmt.Sprint(got.err) != fmt.Sprint(errb) ||
				errors.Is(got.err, ErrUnreachable) != errors.Is(errb, ErrUnreachable) ||
				errors.Is(got.err, ErrHopExhausted) != errors.Is(errb, ErrHopExhausted) ||
				errors.Is(got.err, network.ErrNodeDown) != errors.Is(errb, network.ErrNodeDown) {
				t.Fatalf("%s %d→%d: sent %d, %v; reference %d, %v", got.name, from, to, got.sent, got.err, sb, errb)
			}
		}
		if fmt.Sprint(bufA) != fmt.Sprint(bufB) {
			t.Fatalf("unicast %d→%d: path buffer %v, reference %v", from, to, bufA, bufB)
		}
		want := b.state(t)
		if got := a.state(t); got != want {
			t.Fatalf("unicast %d→%d: radio state\n%s\nreference\n%s", from, to, got, want)
		}
		if got := cached.state(t); got != want {
			t.Fatalf("unicast %d→%d with legs: radio state\n%s\nreference\n%s", from, to, got, want)
		}
	}
	return st
}

// legScript draws a script of n steps for runUnicastScript over a
// deployment of size nodes: mostly repeats of a few legs, some new legs,
// and, at the given rate, exclusion flips.
func legScript(src *rng.Source, n, nodes int, flipRate float64) []byte {
	var script []byte
	for i := 0; i < n; i++ {
		switch {
		case src.Bool(flipRate):
			script = append(script, 0xF0, byte(src.Intn(nodes)))
		case i > 0 && src.Bool(0.6):
			script = append(script, 0xC0, byte(src.Intn(256)))
		default:
			script = append(script, byte(src.Intn(nodes)), byte(src.Intn(nodes)))
		}
	}
	return script
}

// TestLegsMatchReference runs the fuzz target's script on fixed cases —
// plain, lossy, depleting, crashed relays, exclusion flips — and on two
// deployments the uniform draw rarely makes: nodes sharing positions,
// where a route may end at the twin of its destination, and a line cut
// in two by an exclusion, where no route is found until the cut heals.
func TestLegsMatchReference(t *testing.T) {
	uniform, err := field.Generate(field.DefaultSpec(100), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for i := 0; i < 36; i++ {
		pts = append(pts, geo.Pt(float64(i%6)*30, float64(i/6)*30))
		if i%5 == 0 {
			pts = append(pts, pts[len(pts)-1])
		}
	}
	colocated, err := field.FromPositions(pts, 180, 40)
	if err != nil {
		t.Fatal(err)
	}
	line := lineLayout(t, 8)
	// On the line, each leg twice (0→7 and 7→0 may share a slot): 0→7
	// and back, cut at 4, again both ways, healed, again.
	cut := []byte{0, 7, 0xC0, 0, 7, 0, 0xC0, 1, 0xF0, 4, 0xC0, 0, 0xC0, 1, 0xF0, 4, 0xC0, 0, 0xC0, 0, 0xC0, 1, 0xC0, 1}
	cases := []struct {
		name     string
		layout   *field.Layout
		c        unicastCase
		flipRate float64
		script   []byte
	}{
		{name: "plain", layout: uniform},
		{name: "path buffer, traced, metered", layout: uniform, c: unicastCase{pathBuf: true, traced: true, metered: true}},
		{name: "lossy", layout: uniform, c: unicastCase{loss: 0.8, pathBuf: true}},
		{name: "depleting", layout: uniform, c: unicastCase{budget: 60e-6, loss: 0.1}},
		{name: "crashed relays", layout: uniform, c: unicastCase{down: []int{3, 17, 42, 58, 71, 90}}},
		{name: "flips", layout: uniform, c: unicastCase{loss: 0.1, pathBuf: true}, flipRate: 0.08},
		{name: "co-located", layout: colocated, c: unicastCase{loss: 0.05}, flipRate: 0.05},
		{name: "partition", layout: line, c: unicastCase{traced: true}, script: cut},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script := tc.script
			if script == nil {
				script = legScript(rng.New(int64(40+i)), 300, tc.layout.N(), tc.flipRate)
			}
			st := runUnicastScript(t, tc.layout, gpsr.New(tc.layout), int64(50+i), tc.c, script)
			if st.hits == 0 {
				t.Error("vacuous: no leg was replayed")
			}
			if (tc.flipRate > 0 || tc.script != nil) && st.stale == 0 {
				t.Error("vacuous: no slot went stale")
			}
		})
	}
}

// TestLegsStoreOnlyWhatRouted pins the table's rules on a line: a leg is
// stored once routed and replayed under the same generation, a failed
// route stores nothing, a flip makes every slot stale, a path longer than
// a slot is never stored, a table answers only for its own router, a
// colliding leg overwrites, and a slot is half a cache line.
func TestLegsStoreOnlyWhatRouted(t *testing.T) {
	l := lineLayout(t, legNodes+2)
	net, router := network.New(l), gpsr.New(l)
	legs := NewLegs(router)
	opts := TxOptions{Legs: legs}
	send := func(from, to int) error {
		_, err := UnicastOpts(net, router, from, to, network.KindQuery, 8, opts)
		return err
	}
	if err := send(0, 3); err != nil {
		t.Fatal(err)
	}
	if path, ok := legs.get(0, 3); !ok || fmt.Sprint(path) != "[0 1 2 3]" {
		t.Fatalf("stored leg 0→3: %v, %v", path, ok)
	}
	router.Exclude(5)
	if _, ok := legs.get(0, 3); ok {
		t.Error("a leg routed before an exclusion is replayed after it")
	}
	if err := send(0, 6); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("0→6 across the cut: %v", err)
	}
	if _, ok := legs.get(0, 6); ok {
		t.Error("a failed route was stored")
	}
	router.Restore(5)
	if err := send(0, legNodes+1); err != nil {
		t.Fatal(err)
	}
	if _, ok := legs.get(0, legNodes+1); ok {
		t.Errorf("a %d-node path was stored in a %d-node slot", legNodes+2, legNodes)
	}
	if err := send(0, legNodes-1); err != nil {
		t.Fatal(err)
	}
	if path, ok := legs.get(0, legNodes-1); !ok || len(path) != legNodes {
		t.Errorf("a %d-node path: stored %v, %v", legNodes, path, ok)
	}
	other := gpsr.New(l)
	if _, err := UnicastOpts(net, other, 1, 4, network.KindQuery, 8, opts); err != nil {
		t.Fatal(err)
	}
	if _, ok := legs.get(1, 4); ok {
		t.Error("a table stored a leg routed by another router")
	}
	if NewLegs(gpsr.New(lineLayout(t, 1))) != nil {
		t.Error("a one-node deployment got a leg table")
	}
	// Two legs of one slot: the later overwrites the earlier.
	var same [][2]int
	first, _, _ := legs.slot(0, 1)
	for from := 0; from < l.N(); from++ {
		for to := 0; to < l.N() && len(same) < 2; to++ {
			if slot, _, _ := legs.slot(from, to); from != to && slot == first {
				same = append(same, [2]int{from, to})
			}
		}
	}
	if len(same) < 2 {
		t.Fatal("vacuous: no two legs share a slot")
	}
	for _, leg := range same {
		legs.put(leg[0], leg[1], leg[:])
	}
	for i, leg := range same {
		if _, ok := legs.get(leg[0], leg[1]); ok != (i == 1) {
			t.Errorf("leg %v, stored %d of 2 into one slot: held %v", leg, i+1, ok)
		}
	}
	if size := unsafe.Sizeof(legSlot{}); size != 32 {
		t.Errorf("a slot is %d bytes, not half a cache line", size)
	}
}

// TestUnicastSelfDown: a node whose radio is down cannot take part in an
// exchange with itself either; an alive node's self leg stays free.
func TestUnicastSelfDown(t *testing.T) {
	l := lineLayout(t, 3)
	net, router := network.New(l), gpsr.New(l)
	net.FailNode(1)
	for _, opts := range []TxOptions{{}, {Legs: NewLegs(router)}} {
		sent, err := UnicastOpts(net, router, 1, 1, network.KindInsert, 8, opts)
		if sent != 0 || !errors.Is(err, ErrUnreachable) || !errors.Is(err, network.ErrNodeDown) {
			t.Errorf("self leg at a down node: sent %d, err %v; want unreachable, node down", sent, err)
		}
		if sent, err := UnicastOpts(net, router, 2, 2, network.KindInsert, 8, opts); sent != 0 || err != nil {
			t.Errorf("self leg at an alive node: sent %d, err %v", sent, err)
		}
	}
	if net.Snapshot().Total() != 0 {
		t.Error("a self leg was charged")
	}
}

// BenchmarkUnicastLeg is a warm storage leg on a plain N=900 radio: 1024
// pairs one to five hops apart, as Pool's splitter↔cell and DIM's
// owner→owner legs are, each charged by UnicastOpts with a warm leg
// table (ns/op, allocs/op). The same pairs are charged on a second radio
// by UnicastOpts routing every leg (from the warm greedy memo), one block
// after each block of the table's, so both see the same phase of the
// host; route/leg reports how many times faster the table ran. `make
// micro-bench` gates allocs/op at 0, and the benchmark fails below
// legFloor.
func BenchmarkUnicastLeg(b *testing.B) {
	l, err := field.Generate(field.DefaultSpec(900), rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	router, src := gpsr.New(l), rng.New(11)
	pairs := make([][2]int, 0, 1024)
	for len(pairs) < cap(pairs) {
		from, to := src.Intn(l.N()), src.Intn(l.N())
		if res, err := router.RouteToNode(from, to); err == nil && res.Hops() >= 1 && res.Hops() <= 5 {
			pairs = append(pairs, [2]int{from, to})
		}
	}
	buf := make([]int, 0, 64)
	routed, cached := TxOptions{PathBuf: &buf}, TxOptions{PathBuf: &buf, Legs: NewLegs(router)}
	block := func(net *network.Network, n int, opts TxOptions) time.Duration {
		start := time.Now()
		for _, p := range pairs[:n] {
			if _, err := UnicastOpts(net, router, p[0], p[1], network.KindQuery, 64, opts); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	net, routeNet := network.New(l), network.New(l)
	block(net, len(pairs), cached)
	block(routeNet, len(pairs), routed)
	var leg, route time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(pairs) {
		n := min(len(pairs), b.N-done)
		leg += block(net, n, cached)
		b.StopTimer()
		route += block(routeNet, n, routed)
		b.StartTimer()
	}
	b.StopTimer()
	if got, want := net.Messages(network.KindQuery), routeNet.Messages(network.KindQuery); got != want {
		b.Fatalf("the cached legs sent %d messages, the routed ones %d", got, want)
	}
	speedup := float64(route) / float64(leg)
	b.ReportMetric(speedup, "route/leg")
	if b.N >= 10*len(pairs) && speedup < legFloor {
		b.Fatalf("a cached leg is %.2f× routing it, below the %.1f× floor", speedup, legFloor)
	}
}

// legFloor is the least speedup of a cached leg over a routed one
// BenchmarkUnicastLeg accepts (five runs on a shared 2-vCPU Xeon VM:
// 1.71–1.99×).
const legFloor = 1.5
