package dcs

import (
	"errors"
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

func lineLayout(t *testing.T, n int) *field.Layout {
	t.Helper()
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(30*float64(i), 0)
	}
	l, err := field.FromPositions(pts, 30*float64(n), 40)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestHopExhaustedIsTyped(t *testing.T) {
	l := lineLayout(t, 2)
	net := network.New(l, network.WithLossRate(0.999999999, rng.New(3)))
	router := gpsr.New(l)
	_, err := UnicastOpts(net, router, 0, 1, network.KindQuery, 4, TxOptions{})
	if !errors.Is(err, ErrHopExhausted) {
		t.Fatalf("always-lossy unicast: err = %v, want ErrHopExhausted", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatal("link loss must not read as unreachable")
	}
}

// TestConfigurableARQBudget: over an always-lossy link a hop puts
// exactly MaxRetransmissions frames on the air, then gives up.
func TestConfigurableARQBudget(t *testing.T) {
	l := lineLayout(t, 2)
	net := network.New(l, network.WithLossRate(0.999999999, rng.New(7)))
	sent, err := UnicastOpts(net, gpsr.New(l), 0, 1, network.KindQuery, 4, TxOptions{})
	if !errors.Is(err, ErrHopExhausted) {
		t.Fatalf("err = %v, want ErrHopExhausted", err)
	}
	if sent != 16 || net.Messages(network.KindQuery) != 16 || MaxRetransmissions != 16 {
		t.Errorf("sent %d frames, the radio counted %d; want the 16-frame budget (MaxRetransmissions %d)",
			sent, net.Messages(network.KindQuery), MaxRetransmissions)
	}
}

func TestUnicastDeadDestinationUnreachable(t *testing.T) {
	l := lineLayout(t, 4)
	net := network.New(l)
	router := gpsr.New(l)
	net.FailNode(3)
	router.Exclude(3)
	_, err := UnicastOpts(net, router, 0, 3, network.KindQuery, 8, TxOptions{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unicast to dead node: err = %v, want ErrUnreachable", err)
	}
	if errors.Is(err, ErrHopExhausted) {
		t.Fatal("dead destination must not read as link loss")
	}
}

func TestUnicastDeadRelayUnreachable(t *testing.T) {
	// On a line, killing the middle node (without telling the router)
	// makes the relay hop fail with ErrNodeDown mid-route: the error must
	// surface as unreachable immediately, without burning the ARQ budget.
	l := lineLayout(t, 3)
	net := network.New(l)
	router := gpsr.New(l)
	net.FailNode(1)
	sent, err := UnicastOpts(net, router, 0, 2, network.KindQuery, 8, TxOptions{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unicast through dead relay: err = %v, want ErrUnreachable", err)
	}
	if sent != 1 {
		t.Errorf("sent %d frames into a dead relay, want 1 (no futile retries)", sent)
	}
}

func TestCompleteness(t *testing.T) {
	c := Completeness{CellsTotal: 4, CellsReached: 3, Unreached: []string{"c2"}}
	if c.Complete() {
		t.Error("3/4 reported complete")
	}
	if got := c.Fraction(); got != 0.75 {
		t.Errorf("Fraction = %v, want 0.75", got)
	}
	full := Completeness{CellsTotal: 4, CellsReached: 4}
	if !full.Complete() || full.Fraction() != 1 {
		t.Errorf("full = %+v", full)
	}
	empty := Completeness{}
	if !empty.Complete() || empty.Fraction() != 1 {
		t.Errorf("empty fan-out: %+v", empty)
	}
}
