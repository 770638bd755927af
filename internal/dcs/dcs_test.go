package dcs

import (
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

func TestPayloadSizes(t *testing.T) {
	if EventBytes(3) != 16+24 {
		t.Errorf("EventBytes(3) = %d", EventBytes(3))
	}
	if QueryBytes(3) != 16+48 {
		t.Errorf("QueryBytes(3) = %d", QueryBytes(3))
	}
	if ReplyBytes(3, 0) != 16 {
		t.Errorf("empty reply = %d, want ack size", ReplyBytes(3, 0))
	}
	if ReplyBytes(3, 2) != 16+48 {
		t.Errorf("ReplyBytes(3,2) = %d", ReplyBytes(3, 2))
	}
	if ReplyBytes(3, 5) <= ReplyBytes(3, 1) {
		t.Error("reply size must grow with result count")
	}
}

func TestUnicastChargesPerHop(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0), geo.Pt(90, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)

	hops, err := UnicastOpts(net, router, 0, 3, network.KindQuery, 10, TxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hops != 3 {
		t.Errorf("hops = %d, want 3", hops)
	}
	c := net.Snapshot()
	if c.Messages[network.KindQuery] != 3 {
		t.Errorf("messages = %d, want 3", c.Messages[network.KindQuery])
	}
	if c.Bytes[network.KindQuery] != 30 {
		t.Errorf("bytes = %d, want 30", c.Bytes[network.KindQuery])
	}
}

func TestUnicastSelf(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	hops, err := UnicastOpts(net, gpsr.New(l), 1, 1, network.KindReply, 10, TxOptions{})
	if err != nil || hops != 0 {
		t.Errorf("self unicast = %d hops, err %v", hops, err)
	}
	if net.Snapshot().Total() != 0 {
		t.Error("self unicast must be free")
	}
}

func TestReport(t *testing.T) {
	c := network.Counters{
		Messages: map[network.Kind]uint64{
			network.KindInsert: 5,
			network.KindQuery:  7,
			network.KindReply:  3,
		},
		EnergyJ: 1.5,
	}
	r := Report(c)
	if r.Messages != 15 || r.InsertMessages != 5 || r.QueryMessages != 7 || r.ReplyMessages != 3 {
		t.Errorf("Report = %+v", r)
	}
	if r.EnergyJ != 1.5 {
		t.Errorf("EnergyJ = %v", r.EnergyJ)
	}
}

func TestUnicastRetransmitsOnLoss(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l, network.WithLossRate(0.3, rng.New(1)))
	router := gpsr.New(l)

	sent, err := UnicastOpts(net, router, 0, 2, network.KindQuery, 10, TxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two logical hops; with 30% loss, usually more than two frames.
	if sent < 2 {
		t.Errorf("sent %d frames for a 2-hop unicast", sent)
	}
	if got := net.Snapshot().Messages[network.KindQuery]; got != uint64(sent) {
		t.Errorf("counters %d != reported %d", got, sent)
	}
}

func TestUnicastLossyExpectedOverhead(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.2
	net := network.New(l, network.WithLossRate(p, rng.New(2)))
	router := gpsr.New(l)
	total := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		n, err := UnicastOpts(net, router, 0, 1, network.KindControl, 4, TxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// Expected frames per hop ≈ 1/(1−p) = 1.25.
	mean := float64(total) / trials
	if mean < 1.2 || mean > 1.32 {
		t.Errorf("mean frames/hop = %v, want ≈1.25", mean)
	}
}

func TestUnicastGivesUpAfterMaxRetries(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Loss rate ~1: every frame drops.
	net := network.New(l, network.WithLossRate(0.999999999, rng.New(3)))
	router := gpsr.New(l)
	if _, err := UnicastOpts(net, router, 0, 1, network.KindQuery, 4, TxOptions{}); err == nil {
		t.Fatal("expected failure on an always-lossy link")
	}
}
