package discovery

import (
	"testing"
	"time"

	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

func protocolFixture(t *testing.T, n int, seed int64, cfg Config) (*Protocol, *sim.Scheduler, *network.Network) {
	t.Helper()
	layout, err := field.Generate(field.DefaultSpec(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	net := network.New(layout)
	p := New(net, sched, rng.New(seed+1), cfg)
	return p, sched, net
}

func TestDiscoveryConverges(t *testing.T) {
	p, sched, net := protocolFixture(t, 300, 1, Config{})
	p.Start()
	if err := sched.RunUntil(3*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	ok, diag := p.Converged()
	if !ok {
		t.Fatalf("not converged after 3 beacon rounds: %s", diag)
	}
	if net.Snapshot().Messages[network.KindControl] == 0 {
		t.Error("beacons cost no control messages")
	}
}

func TestDiscoveryBeaconRate(t *testing.T) {
	p, sched, net := protocolFixture(t, 300, 2, Config{Interval: time.Second})
	p.Start()
	if err := sched.RunUntil(10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	msgs := net.Snapshot().Messages[network.KindControl]
	// ~10 rounds × 300 nodes, one broadcast each.
	if msgs < 2500 || msgs > 3500 {
		t.Errorf("beacon count = %d, want ≈3000", msgs)
	}
}

func TestFailedNodeEvicted(t *testing.T) {
	p, sched, _ := protocolFixture(t, 300, 3, Config{Interval: time.Second, MissLimit: 3})
	p.Start()
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	victim := 42
	layout := p.net.Layout()
	nbrs := layout.Neighbors(victim)
	if len(nbrs) == 0 {
		t.Fatal("victim has no neighbours; pick another seed")
	}
	witness := nbrs[0]
	inTable := func() bool {
		for _, v := range p.Neighbors(witness) {
			if v == victim {
				return true
			}
		}
		return false
	}
	if !inTable() {
		t.Fatal("victim not discovered before failure")
	}

	p.Fail(victim)
	// Within the miss limit the victim is still (stale) present.
	if err := sched.RunUntil(4*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if !inTable() {
		t.Error("victim evicted too early")
	}
	// Well past the miss limit it must be gone.
	if err := sched.RunUntil(12*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if inTable() {
		t.Error("failed node still in neighbour table")
	}
	// And the survivors' view is consistent with the oracle minus the
	// victim.
	ok, diag := p.Converged()
	if !ok {
		t.Errorf("not converged after failure: %s", diag)
	}
}

func TestStopHaltsBeacons(t *testing.T) {
	p, sched, net := protocolFixture(t, 300, 4, Config{Interval: time.Second})
	p.Start()
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	before := net.Snapshot().Messages[network.KindControl]
	if err := sched.RunUntil(10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	after := net.Snapshot().Messages[network.KindControl]
	// At most one in-flight round fires after Stop.
	if after-before > 300 {
		t.Errorf("beacons kept flowing after Stop: %d extra", after-before)
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.applyDefaults()
	if cfg.Interval != time.Second || cfg.MissLimit != 3 || cfg.PayloadBytes != 16 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Jitter != 250*time.Millisecond {
		t.Errorf("jitter default = %v", cfg.Jitter)
	}
}

func TestDiscoveryDeterministic(t *testing.T) {
	run := func() uint64 {
		p, sched, net := protocolFixture(t, 300, 5, Config{})
		p.Start()
		if err := sched.RunUntil(5*time.Second, 0); err != nil {
			t.Fatal(err)
		}
		return net.Snapshot().Messages[network.KindControl]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs differ: %d vs %d", a, b)
	}
}

func TestBroadcastReachesNeighbors(t *testing.T) {
	layout, err := field.Generate(field.DefaultSpec(300), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(layout)
	if missed := net.Broadcast(0, network.KindControl, 16); len(missed) != 0 {
		t.Fatalf("broadcast missed slots %v, want none", missed)
	}
	want := layout.Neighbors(0)
	c := net.Snapshot()
	if c.Messages[network.KindControl] != 1 {
		t.Errorf("broadcast counted as %d messages, want 1", c.Messages[network.KindControl])
	}
	if net.NodeEnergy(0) <= 0 {
		t.Error("broadcast cost the sender no energy")
	}
	if len(want) > 0 && net.NodeEnergy(want[0]) <= 0 {
		t.Error("broadcast cost receivers no energy")
	}
}

// Each of these configurations once broke the protocol: a negative
// Jitter panicked in Start with an integer divide by zero, a negative
// MissLimit gave a negative Timeout under which healthy nodes were
// suspected within seconds, and a negative Interval spun the beacon loop
// at zero delay. New must refuse them.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative jitter", Config{Jitter: -1}},
		{"negative miss limit", Config{MissLimit: -2}},
		{"negative interval", Config{Interval: -time.Second}},
		{"negative payload", Config{PayloadBytes: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("Validate(%+v) = nil, want an error", tc.cfg)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", tc.cfg)
				}
			}()
			protocolFixture(t, 50, 1, tc.cfg)
		})
	}
	for _, cfg := range []Config{{}, {Interval: time.Millisecond, MissLimit: 1, Jitter: time.Millisecond}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}
