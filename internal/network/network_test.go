package network

import (
	"errors"
	"math"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

func chainLayout(t *testing.T) *field.Layout {
	t.Helper()
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0), geo.Pt(200, 0)}
	l, err := field.FromPositions(pts, 250, 40)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Errorf("Kind %d has empty String", int(k))
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty String")
	}
}

func TestTransmitCountsByKind(t *testing.T) {
	n := New(chainLayout(t))
	if err := n.Transmit(0, 1, KindInsert, 32); err != nil {
		t.Fatal(err)
	}
	if err := n.Transmit(1, 2, KindQuery, 16); err != nil {
		t.Fatal(err)
	}
	if err := n.Transmit(2, 1, KindQuery, 16); err != nil {
		t.Fatal(err)
	}
	c := n.Snapshot()
	if c.Messages[KindInsert] != 1 || c.Messages[KindQuery] != 2 {
		t.Errorf("messages = %v", c.Messages)
	}
	if c.Bytes[KindInsert] != 32 || c.Bytes[KindQuery] != 32 {
		t.Errorf("bytes = %v", c.Bytes)
	}
	if c.Total() != 3 {
		t.Errorf("Total = %d, want 3", c.Total())
	}
}

func TestTotalDataExcludesControl(t *testing.T) {
	n := New(chainLayout(t))
	_ = n.Transmit(0, 1, KindQuery, 8)
	_ = n.Transmit(0, 1, KindControl, 8)
	c := n.Snapshot()
	if c.TotalData() != 1 {
		t.Errorf("TotalData = %d, want 1", c.TotalData())
	}
}

func TestTransmitOutOfRange(t *testing.T) {
	n := New(chainLayout(t))
	err := n.Transmit(2, 3, KindInsert, 8) // 140 m apart, range 40 m
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LinkError", err)
	}
	if le.From != 2 || le.To != 3 {
		t.Errorf("LinkError = %+v", le)
	}
	if c := n.Snapshot(); c.Total() != 0 {
		t.Error("failed transmission must not be counted")
	}
}

func TestTransmitSelf(t *testing.T) {
	n := New(chainLayout(t))
	if err := n.Transmit(1, 1, KindInsert, 8); err == nil {
		t.Error("self-transmission accepted")
	}
}

func TestInRange(t *testing.T) {
	n := New(chainLayout(t))
	if !n.InRange(0, 1) {
		t.Error("adjacent nodes should be in range")
	}
	if n.InRange(0, 3) {
		t.Error("distant nodes should not be in range")
	}
}

func TestEnergyAccounting(t *testing.T) {
	n := New(chainLayout(t), WithEnergyModel(EnergyModel{Elec: 1, Amp: 0.5}))
	// 1 byte = 8 bits over 30 m: tx = 1*8 + 0.5*8*900 = 3608; rx = 8.
	if err := n.Transmit(0, 1, KindInsert, 1); err != nil {
		t.Fatal(err)
	}
	want := 3608.0 + 8.0
	if got := n.Snapshot().EnergyJ; got != want {
		t.Errorf("EnergyJ = %v, want %v", got, want)
	}
}

func TestDefaultEnergyModelMagnitude(t *testing.T) {
	n := New(chainLayout(t))
	_ = n.Transmit(0, 1, KindInsert, 100)
	e := n.Snapshot().EnergyJ
	// 800 bits at ~50nJ/bit twice plus amp term: order of 1e-4 J.
	if e <= 0 || e > 1e-3 {
		t.Errorf("default energy per message = %v J, implausible", e)
	}
}

func TestNodeLoadAndHotspot(t *testing.T) {
	n := New(chainLayout(t))
	for i := 0; i < 5; i++ {
		_ = n.Transmit(0, 1, KindQuery, 8)
	}
	_ = n.Transmit(1, 2, KindReply, 8)
	tx, rx := n.NodeLoad(1)
	if tx != 1 || rx != 5 {
		t.Errorf("NodeLoad(1) = %d tx, %d rx", tx, rx)
	}
	node, load := n.MaxNodeLoad()
	if node != 1 || load != 6 {
		t.Errorf("MaxNodeLoad = node %d load %d, want node 1 load 6", node, load)
	}
}

func TestDiff(t *testing.T) {
	n := New(chainLayout(t))
	_ = n.Transmit(0, 1, KindInsert, 10)
	before := n.Snapshot()
	_ = n.Transmit(0, 1, KindQuery, 20)
	_ = n.Transmit(1, 0, KindQuery, 20)
	d := n.Diff(before)
	if d.Messages[KindQuery] != 2 || d.Messages[KindInsert] != 0 {
		t.Errorf("Diff messages = %v", d.Messages)
	}
	if d.Bytes[KindQuery] != 40 {
		t.Errorf("Diff bytes = %v", d.Bytes)
	}
	if d.EnergyJ <= 0 {
		t.Error("Diff energy should be positive")
	}
}

func TestHopCountAcrossGeneratedNetwork(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	n := New(l)
	// Transmit along a neighbour chain and confirm counts add up.
	cur, hops := 0, 0
	for next := range 5 {
		nbrs := l.Neighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		to := nbrs[next%len(nbrs)]
		if err := n.Transmit(cur, to, KindInsert, 8); err != nil {
			t.Fatal(err)
		}
		cur = to
		hops++
	}
	if got := n.Snapshot().Total(); got != uint64(hops) {
		t.Errorf("Total = %d, want %d", got, hops)
	}
}

func TestPerNodeEnergy(t *testing.T) {
	n := New(chainLayout(t), WithEnergyModel(EnergyModel{Elec: 1, Amp: 0}))
	if err := n.Transmit(0, 1, KindInsert, 1); err != nil { // 8 bits
		t.Fatal(err)
	}
	if tx := n.NodeEnergy(0); tx != 8 {
		t.Errorf("sender energy = %v, want 8", tx)
	}
	if rx := n.NodeEnergy(1); rx != 8 {
		t.Errorf("receiver energy = %v, want 8", rx)
	}
	if idle := n.NodeEnergy(2); idle != 0 {
		t.Errorf("idle node energy = %v, want 0", idle)
	}
	energies := n.NodeEnergies()
	if len(energies) != 4 || energies[0] != 8 {
		t.Errorf("NodeEnergies = %v", energies)
	}
	// The returned slice is a copy.
	energies[0] = 999
	if n.NodeEnergy(0) != 8 {
		t.Error("NodeEnergies exposed internal state")
	}
}

func TestMTUFragmentation(t *testing.T) {
	n := New(chainLayout(t), WithMTU(32))
	if err := n.Transmit(0, 1, KindReply, 100); err != nil { // 4 frames
		t.Fatal(err)
	}
	if err := n.Transmit(0, 1, KindReply, 32); err != nil { // 1 frame
		t.Fatal(err)
	}
	if err := n.Transmit(0, 1, KindReply, 1); err != nil { // 1 frame
		t.Fatal(err)
	}
	c := n.Snapshot()
	if c.Messages[KindReply] != 6 {
		t.Errorf("fragmented messages = %d, want 6", c.Messages[KindReply])
	}
	if c.Bytes[KindReply] != 133 {
		t.Errorf("bytes = %d, want 133", c.Bytes[KindReply])
	}
	tx, _ := n.NodeLoad(0)
	if tx != 6 {
		t.Errorf("sender frame count = %d, want 6", tx)
	}
}

func TestNoMTUNoFragmentation(t *testing.T) {
	n := New(chainLayout(t))
	if err := n.Transmit(0, 1, KindReply, 10000); err != nil {
		t.Fatal(err)
	}
	if c := n.Snapshot(); c.Messages[KindReply] != 1 {
		t.Errorf("messages = %d, want 1 without MTU", c.Messages[KindReply])
	}
}

func TestBroadcastWithMTU(t *testing.T) {
	n := New(chainLayout(t), WithMTU(16))
	n.Broadcast(1, KindControl, 40) // 3 frames
	c := n.Snapshot()
	if c.Messages[KindControl] != 3 {
		t.Errorf("broadcast frames = %d, want 3", c.Messages[KindControl])
	}
}

func TestLossNeverOnZeroRate(t *testing.T) {
	n := New(chainLayout(t))
	for i := 0; i < 1000; i++ {
		if err := n.Transmit(0, 1, KindInsert, 4); err != nil {
			t.Fatalf("lossless network dropped a frame: %v", err)
		}
	}
}

func TestLossRateDropsFrames(t *testing.T) {
	n := New(chainLayout(t), WithLossRate(0.5, rng.New(42)))
	lost := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if err := n.Transmit(0, 1, KindInsert, 4); errors.Is(err, ErrFrameLost) {
			lost++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if lost < trials/3 || lost > 2*trials/3 {
		t.Errorf("lost %d of %d at rate 0.5", lost, trials)
	}
	// Receiver never counted lost frames.
	_, rx := n.NodeLoad(1)
	if rx != uint64(trials-lost) {
		t.Errorf("receiver counted %d, want %d", rx, trials-lost)
	}
	// Sender paid for everything.
	tx, _ := n.NodeLoad(0)
	if tx != uint64(trials) {
		t.Errorf("sender counted %d, want %d", tx, trials)
	}
}

func TestEnergyModelValidate(t *testing.T) {
	cases := []struct {
		name  string
		model EnergyModel
		ok    bool
	}{
		{"default", DefaultEnergyModel(), true},
		{"zero", EnergyModel{}, true},
		{"negative elec", EnergyModel{Elec: -50e-9, Amp: 100e-12}, false},
		{"negative amp", EnergyModel{Elec: 50e-9, Amp: -1}, false},
		{"nan elec", EnergyModel{Elec: math.NaN()}, false},
		{"nan amp", EnergyModel{Amp: math.NaN()}, false},
	}
	for _, c := range cases {
		err := c.model.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid model accepted", c.name)
		}
	}
}

func TestWithEnergyModelPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithEnergyModel accepted a negative per-bit energy")
		}
	}()
	WithEnergyModel(EnergyModel{Elec: -1})
}

func TestTransmitRecordsTraceHops(t *testing.T) {
	tr := trace.New(nil)
	n := New(chainLayout(t), WithTracer(tr), WithMTU(16))
	if err := n.Transmit(0, 1, KindInsert, 40); err != nil { // 3 frames
		t.Fatal(err)
	}
	if err := n.Transmit(1, 2, KindQuery, 8); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events().Slice()
	if len(evs) != 2 {
		t.Fatalf("got %d trace events, want 2", len(evs))
	}
	want := trace.Event{Type: trace.TypeHop, From: 0, To: 1, Kind: "insert",
		Bytes: 40, Frames: 3, Node: -1}
	if evs[0] != want {
		t.Errorf("hop event = %+v, want %+v", evs[0], want)
	}
	if evs[1].Kind != "query" || evs[1].Frames != 1 {
		t.Errorf("second hop = %+v", evs[1])
	}
}

func TestTransmitRecordsLostFrames(t *testing.T) {
	tr := trace.New(nil)
	n := New(chainLayout(t), WithTracer(tr), WithLossRate(0.5, rng.New(7)))
	lost := 0
	for i := 0; i < 100; i++ {
		if err := n.Transmit(0, 1, KindInsert, 4); errors.Is(err, ErrFrameLost) {
			lost++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	var traceLost int
	for _, ev := range tr.Events().Slice() {
		if ev.Lost {
			traceLost++
		}
	}
	if lost == 0 {
		t.Fatal("no frames lost at rate 0.5")
	}
	if traceLost != lost {
		t.Errorf("trace recorded %d lost frames, network dropped %d", traceLost, lost)
	}
	if tr.Len() != 100 {
		t.Errorf("trace has %d hops, want 100 (lost frames included)", tr.Len())
	}
}

func TestBroadcastRecordsTrace(t *testing.T) {
	tr := trace.New(nil)
	n := New(chainLayout(t), WithTracer(tr))
	reached := len(n.Layout().Neighbors(1)) - len(n.Broadcast(1, KindControl, 8))
	evs := tr.Events().Slice()
	if len(evs) != 1 || evs[0].Type != trace.TypeBroadcast {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].From != 1 || evs[0].Kind != "control" || evs[0].N != reached || reached != 2 {
		t.Errorf("broadcast event = %+v, want from=1 kind=control n=%d", evs[0], reached)
	}
}

// TestFailedTransmitNotTraced pins the invariant behind the trace/counter
// consistency check: link errors increment neither counters nor trace.
func TestFailedTransmitNotTraced(t *testing.T) {
	tr := trace.New(nil)
	n := New(chainLayout(t), WithTracer(tr))
	if err := n.Transmit(2, 3, KindInsert, 8); err == nil {
		t.Fatal("expected link error")
	}
	if tr.Len() != 0 {
		t.Errorf("link error produced %d trace events", tr.Len())
	}
}

// TestTraceMatchesCountersByKind cross-checks the tracer against the
// accounting layer over mixed unicast, broadcast, fragmented, and lossy
// traffic: per-kind frame and byte totals must agree exactly.
func TestTraceMatchesCountersByKind(t *testing.T) {
	tr := trace.New(nil)
	n := New(chainLayout(t), WithTracer(tr), WithMTU(16), WithLossRate(0.3, rng.New(3)))
	links := [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}}
	for i := 0; i < 200; i++ {
		kind := Kinds()[i%len(Kinds())]
		link := links[i%len(links)]
		err := n.Transmit(link[0], link[1], kind, 4+i%40)
		if err != nil && !errors.Is(err, ErrFrameLost) {
			t.Fatal(err)
		}
		if i%10 == 0 {
			n.Broadcast(i%3, KindControl, 24)
		}
	}
	a, err := trace.Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	c := n.Snapshot()
	for _, k := range Kinds() {
		kt := a.ByKind[k.String()]
		if kt.Frames != c.Messages[k] {
			t.Errorf("%v frames: trace %d, counters %d", k, kt.Frames, c.Messages[k])
		}
		if kt.Bytes != c.Bytes[k] {
			t.Errorf("%v bytes: trace %d, counters %d", k, kt.Bytes, c.Bytes[k])
		}
	}
	if a.TotalFrames() != c.Total() {
		t.Errorf("total frames: trace %d, counters %d", a.TotalFrames(), c.Total())
	}
}

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
