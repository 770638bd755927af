package network

import (
	"errors"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
	"pooldcs/internal/trace"
)

// starLayout places node 0 at the origin with k neighbours in range.
func starLayout(t *testing.T, k int) *field.Layout {
	t.Helper()
	pts := []geo.Point{geo.Pt(0, 0)}
	for i := 0; i < k; i++ {
		pts = append(pts, geo.Pt(10+float64(i), 0))
	}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTransmitToDeadNode(t *testing.T) {
	n := New(chainLayout(t))
	n.FailNode(1)
	err := n.Transmit(0, 1, KindInsert, 16)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("transmit to dead node: err = %v, want ErrNodeDown", err)
	}
	// The sender paid: the frame counts and costs energy, but no Rx.
	c := n.Snapshot()
	if c.Messages[KindInsert] != 1 {
		t.Errorf("messages = %d, want 1 (sender pays for the dead hop)", c.Messages[KindInsert])
	}
	if _, rx := n.NodeLoad(1); rx != 0 {
		t.Errorf("dead node received %d frames", rx)
	}
	if n.NodeEnergy(1) != 0 {
		t.Errorf("dead node charged %v J", n.NodeEnergy(1))
	}
}

func TestTransmitFromDeadNode(t *testing.T) {
	n := New(chainLayout(t))
	n.FailNode(0)
	err := n.Transmit(0, 1, KindInsert, 16)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("transmit from dead node: err = %v, want ErrNodeDown", err)
	}
	// A dead sender transmits nothing: no frames, no energy.
	if c := n.Snapshot(); c.Total() != 0 {
		t.Errorf("dead sender counted %d messages", c.Total())
	}
	n.RecoverNode(0)
	if err := n.Transmit(0, 1, KindInsert, 16); err != nil {
		t.Fatalf("transmit after recovery: %v", err)
	}
}

func TestBroadcastLossyPerReceiver(t *testing.T) {
	const k, trials = 8, 400
	l := starLayout(t, k)
	tr := trace.New(nil)
	n := New(l, WithLossRate(0.5, rng.New(42)), WithTracer(tr))
	total := 0
	for i := 0; i < trials; i++ {
		total += k - len(n.Broadcast(0, KindControl, 8))
	}
	// Independent 50% drops: the mean reach must be near k/2, and with 400
	// trials a fully-correlated model (all-or-nothing) would essentially
	// never land in this window per-receiver variance does.
	mean := float64(total) / trials
	if mean < 0.4*k || mean > 0.6*k {
		t.Errorf("mean broadcast reach = %.2f of %d, want ≈ %d", mean, k, k/2)
	}
	// Trace accounting: reached + lost must equal k on every record.
	for _, ev := range tr.Events().Slice() {
		if ev.Type != trace.TypeBroadcast {
			continue
		}
		if ev.N+ev.NLost != k {
			t.Fatalf("broadcast record: reached %d + lost %d != %d neighbours", ev.N, ev.NLost, k)
		}
	}
}

func TestBroadcastSkipsDeadReceivers(t *testing.T) {
	l := starLayout(t, 4)
	n := New(l)
	n.FailNode(2)
	nbrs := l.Neighbors(0)
	missed := n.Broadcast(0, KindControl, 8)
	if len(missed) != 1 || nbrs[missed[0]] != 2 {
		t.Fatalf("missed slots %v of %v, want dead node 2 alone", missed, nbrs)
	}
	if n.NodeEnergy(2) != 0 {
		t.Errorf("dead node charged %v J for a reception", n.NodeEnergy(2))
	}
	// A dead sender broadcasts nothing.
	n.FailNode(0)
	before := n.Snapshot()
	if got := n.Broadcast(0, KindControl, 8); len(got) != len(nbrs) {
		t.Errorf("dead sender missed %v, want every slot of %v", got, nbrs)
	}
	if after := n.Snapshot(); after.Total() != before.Total() || after.EnergyJ != before.EnergyJ {
		t.Errorf("dead sender's broadcast cost %+v, want nothing", n.Diff(before))
	}
}

func TestRegionLossBurst(t *testing.T) {
	n := New(chainLayout(t))
	// A certain-loss burst over node 1: the 0→1 hop always drops.
	cancel := n.AddRegionLoss(geo.RectFromCorners(geo.Pt(25, -5), geo.Pt(35, 5)), 1.0, rng.New(1))
	if err := n.Transmit(0, 1, KindQuery, 8); !errors.Is(err, ErrFrameLost) {
		t.Fatalf("transmit into burst region: err = %v, want ErrFrameLost", err)
	}
	// Both endpoints outside the region: unaffected.
	if err := n.Transmit(1, 2, KindQuery, 8); err != nil {
		// Node 1 at (30,0) is inside the region, so this hop is also hit.
		if !errors.Is(err, ErrFrameLost) {
			t.Fatalf("transmit from burst region: err = %v", err)
		}
	}
	cancel()
	if err := n.Transmit(0, 1, KindQuery, 8); err != nil {
		t.Fatalf("transmit after burst ended: %v", err)
	}
}

func TestRegionLossCancelIsIdempotent(t *testing.T) {
	n := New(chainLayout(t))
	c1 := n.AddRegionLoss(geo.RectFromCorners(geo.Pt(0, 0), geo.Pt(1, 1)), 1.0, rng.New(1))
	c2 := n.AddRegionLoss(geo.RectFromCorners(geo.Pt(2, 2), geo.Pt(3, 3)), 1.0, rng.New(2))
	c1()
	c1() // double-cancel must not remove the other burst
	if len(n.bursts) != 1 {
		t.Fatalf("bursts = %d, want 1", len(n.bursts))
	}
	c2()
	if len(n.bursts) != 0 {
		t.Fatalf("bursts = %d, want 0", len(n.bursts))
	}
}

func TestEnergyBudgetDepletion(t *testing.T) {
	m := DefaultEnergyModel()
	// Budget two transmissions' worth of sender energy for the 0→1 hop.
	bits := float64(16 * 8)
	d2 := 30.0 * 30.0
	perTx := m.Elec*bits + m.Amp*bits*d2
	m.Budget = 2.5 * perTx

	n := New(chainLayout(t), WithEnergyModel(m))
	var depleted []int
	n.OnDepleted(func(id int) { depleted = append(depleted, id) })

	if err := n.Transmit(0, 1, KindInsert, 16); err != nil {
		t.Fatal(err)
	}
	if err := n.Transmit(0, 1, KindInsert, 16); err != nil {
		t.Fatal(err)
	}
	if n.Depleted(0) {
		t.Fatal("node 0 depleted below budget")
	}
	// Third transmission crosses the budget mid-call.
	err := n.Transmit(0, 1, KindInsert, 16)
	if err != nil {
		t.Fatalf("depleting transmission itself should succeed, got %v", err)
	}
	if !n.Depleted(0) || n.Alive(0) {
		t.Fatal("node 0 should be depleted")
	}
	if len(depleted) != 1 || depleted[0] != 0 {
		t.Fatalf("depletion callbacks = %v, want [0]", depleted)
	}
	// Depletion is permanent: recovery does not refill the battery.
	n.RecoverNode(0)
	if n.Alive(0) {
		t.Fatal("RecoverNode revived a depleted node")
	}
	if err := n.Transmit(0, 1, KindInsert, 16); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("transmit from depleted node: err = %v, want ErrNodeDown", err)
	}
	// The watcher fires once per node, not once per charge.
	if len(depleted) != 1 {
		t.Fatalf("depletion callbacks = %v, want exactly one", depleted)
	}
}

func TestEnergyBudgetValidate(t *testing.T) {
	m := DefaultEnergyModel()
	m.Budget = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative budget passed Validate")
	}
}
