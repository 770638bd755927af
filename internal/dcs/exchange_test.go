package dcs

import (
	"errors"
	"testing"

	"pooldcs/internal/dcs/dcstest"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

// TestExchangePolicy walks the failure policy on a six-node line, 0 → 3:
// jammed nodes lose every frame they send or receive through the whole ARQ
// budget, which is the timeout the policy retries after.
func TestExchangePolicy(t *testing.T) {
	to := func(alt int) func(int) int { return func(int) int { return alt } }
	cases := []struct {
		name        string
		jam         []int
		retarget    func(lost int) int
		landed      int
		retries     int
		wantQueries uint64 // query frames on the air, ARQ repeats included
	}{
		{name: "lands first try", landed: 3, wantQueries: 3},
		{name: "same node, lost twice", jam: []int{3}, landed: -1, retries: 1,
			wantQueries: 2 * (2 + MaxRetransmissions)},
		{name: "lands at the retargeted node", jam: []int{3}, retarget: to(2), landed: 2, retries: 1,
			wantQueries: 2 + MaxRetransmissions + 2},
		{name: "retargeted node lost too", jam: []int{2, 3}, retarget: to(2), landed: -1, retries: 1,
			wantQueries: 2 * (1 + MaxRetransmissions)},
		{name: "nowhere to retry", jam: []int{3}, retarget: to(-1), landed: -1, retries: 0,
			wantQueries: 2 + MaxRetransmissions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := lineLayout(t, 6)
			net, router := network.New(l), gpsr.New(l)
			for _, id := range tc.jam {
				dcstest.Jam(net, id)
			}
			var comp Completeness
			landed, err := Exchange(net, router, 0, 3, network.KindQuery, 8, TxOptions{}, &comp, tc.retarget)
			if err != nil {
				t.Fatal(err)
			}
			if landed != tc.landed || comp.Retries != tc.retries {
				t.Errorf("landed at %d after %d retries, want %d after %d", landed, comp.Retries, tc.landed, tc.retries)
			}
			if got := net.Messages(network.KindQuery); got != tc.wantQueries {
				t.Errorf("%d query frames, want %d", got, tc.wantQueries)
			}
		})
	}
}

func TestExchangeRetargetSeesTheLostNode(t *testing.T) {
	l := lineLayout(t, 6)
	net, router := network.New(l), gpsr.New(l)
	heal := dcstest.Jam(net, 3)
	var comp Completeness
	// The retry goes to the node that timed out, which has healed by then.
	landed, err := Exchange(net, router, 0, 3, network.KindQuery, 8, TxOptions{}, &comp, func(lost int) int {
		heal()
		return lost
	})
	if err != nil || landed != 3 || comp.Retries != 1 {
		t.Errorf("landed at %d after %d retries (err %v), want 3 after 1", landed, comp.Retries, err)
	}
}

func TestExchangeIsDirectional(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(300), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	net, router := network.New(l), gpsr.New(l)
	for from := 0; from < l.N(); from++ {
		relay := dcstest.OneWayRelay(t, router, from, l.N()-1-from)
		if relay < 0 {
			continue
		}
		to := l.N() - 1 - from
		dcstest.Jam(net, relay)
		var out, back Completeness
		if landed, err := Exchange(net, router, from, to, network.KindQuery, 8, TxOptions{}, &out, nil); err != nil || landed != -1 || out.Retries != 1 {
			t.Errorf("%d→%d through jammed %d: landed %d after %d retries (err %v)", from, to, relay, landed, out.Retries, err)
		}
		if landed, err := Exchange(net, router, to, from, network.KindReply, 8, TxOptions{}, &back, nil); err != nil || landed != from || back.Retries != 0 {
			t.Errorf("%d→%d around jammed %d: landed %d after %d retries (err %v)", to, from, relay, landed, back.Retries, err)
		}
		return
	}
	t.Fatal("no pair with a one-way relay")
}

func TestExchangeSurfacesOtherErrors(t *testing.T) {
	// The router believes in 30 m hops the 40 m radio of a network laid
	// out at 50 m cannot make: a link error, which no retry absorbs.
	pts := make([]geo.Point, 3)
	for i := range pts {
		pts[i] = geo.Pt(50*float64(i), 0)
	}
	far, err := field.FromPositions(pts, 150, 40)
	if err != nil {
		t.Fatal(err)
	}
	var comp Completeness
	landed, err := Exchange(network.New(far), gpsr.New(lineLayout(t, 3)), 0, 2, network.KindQuery, 8, TxOptions{}, &comp,
		func(int) int { t.Error("retargeted a failure that is not a loss"); return -1 })
	var link *network.LinkError
	if !errors.As(err, &link) || IsDegradable(err) || landed != -1 || comp.Retries != 0 {
		t.Errorf("landed %d after %d retries, err %v; want the link error, no retry", landed, comp.Retries, err)
	}
}
