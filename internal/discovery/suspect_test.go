package discovery

import (
	"testing"
	"time"

	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// pickVictim returns a node with at least one neighbour.
func pickVictim(t *testing.T, p *Protocol) int {
	t.Helper()
	layout := p.net.Layout()
	for id := 0; id < layout.N(); id++ {
		if len(layout.Neighbors(id)) > 0 {
			return id
		}
	}
	t.Fatal("no node has neighbours")
	return -1
}

// Regression for the stale-slice bug: a caller that cached the slice
// returned by Neighbors before a failure must not be able to mask the
// eviction, and mutating a returned slice must not corrupt the protocol's
// state. Neighbors must return a fresh allocation per call.
func TestNeighborsReturnsFreshSlice(t *testing.T) {
	p, sched, _ := protocolFixture(t, 300, 7, Config{Interval: time.Second})
	p.Start()
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, p)
	witness := p.net.Layout().Neighbors(victim)[0]

	cached := p.Neighbors(witness)
	if len(cached) == 0 {
		t.Fatal("witness discovered nothing")
	}
	// Two calls must not share a backing array.
	again := p.Neighbors(witness)
	if &cached[0] == &again[0] {
		t.Fatal("Neighbors returned a shared backing array across calls")
	}
	// Caller-side mutation must not leak into the protocol.
	for i := range cached {
		cached[i] = -1
	}
	for _, v := range p.Neighbors(witness) {
		if v == -1 {
			t.Fatal("mutating a returned slice corrupted the neighbour table")
		}
	}

	p.Fail(victim)
	if err := sched.RunUntil(sched.Now()+3*p.cfg.Timeout(), 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Neighbors(witness) {
		if v == victim {
			t.Error("failed node still returned after eviction timeout")
		}
	}
}

func TestSuspectFiresOnFailure(t *testing.T) {
	p, sched, _ := protocolFixture(t, 300, 8, Config{Interval: time.Second})
	p.Start()
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, p)

	var fired []int
	var when time.Duration
	p.OnSuspect(func(id int) {
		fired = append(fired, id)
		when = sched.Now()
	})

	failAt := sched.Now()
	p.Fail(victim)
	if p.Suspect(victim) {
		t.Fatal("suspected before any beacon timeout")
	}
	if err := sched.RunUntil(failAt+3*p.cfg.Timeout(), 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != victim {
		t.Fatalf("OnSuspect fired for %v, want exactly [%d]", fired, victim)
	}
	if !p.Suspect(victim) {
		t.Error("Suspect(victim) = false after callback fired")
	}
	latency := when - failAt
	if latency < p.cfg.Interval {
		t.Errorf("detection latency %v < one beacon period %v", latency, p.cfg.Interval)
	}
	if latency > p.cfg.Timeout()+p.cfg.Interval+p.cfg.Jitter() {
		t.Errorf("detection latency %v exceeds timeout %v plus a sweep period", latency, p.cfg.Timeout())
	}
}

func TestSuspicionClearedOnRecovery(t *testing.T) {
	p, sched, _ := protocolFixture(t, 300, 9, Config{Interval: time.Second})
	p.Start()
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, p)
	p.Fail(victim)
	if err := sched.RunUntil(sched.Now()+3*p.cfg.Timeout(), 0); err != nil {
		t.Fatal(err)
	}
	if !p.Suspect(victim) {
		t.Fatal("victim never suspected")
	}

	suspicions := 0
	p.OnSuspect(func(int) { suspicions++ })
	p.Recover(victim)
	if err := sched.RunUntil(sched.Now()+2*p.cfg.Interval, 0); err != nil {
		t.Fatal(err)
	}
	if p.Suspect(victim) {
		t.Error("suspicion not cleared after the recovered node beaconed")
	}
	if suspicions != 0 {
		t.Errorf("recovery raised %d spurious suspicions", suspicions)
	}
	// The recovered node must re-enter its neighbours' tables.
	witness := p.net.Layout().Neighbors(victim)[0]
	found := false
	for _, v := range p.Neighbors(witness) {
		if v == victim {
			found = true
		}
	}
	if !found {
		t.Error("recovered node not rediscovered")
	}
}

// A fail/recover pair must leave exactly one beacon loop per node: the
// epoch guard kills the loop that was pending when Fail hit, and Recover
// starts a single fresh one. A double loop would double the control
// message rate.
func TestRecoverDoesNotDuplicateBeaconLoop(t *testing.T) {
	p, sched, net := protocolFixture(t, 300, 10, Config{Interval: time.Second})
	p.Start()
	if err := sched.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, p)
	// Fail and immediately recover, several times, trying to race the
	// pending beacon event.
	for i := 0; i < 5; i++ {
		p.Fail(victim)
		p.Recover(victim)
	}
	start := net.Snapshot().Messages[network.KindControl]
	if err := sched.RunUntil(sched.Now()+10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	msgs := net.Snapshot().Messages[network.KindControl] - start
	// ~10 rounds × 300 nodes; a duplicated loop on the victim would add
	// ~10 extra. Allow jitter slack but catch systematic duplication.
	if msgs < 2500 || msgs > 3200 {
		t.Errorf("control messages after churned recovery = %d, want ≈3000", msgs)
	}
}

// Satellite property test: across random beacon periods (and with them
// the jitter) and link loss rates, the detection latency for a crashed
// node is (a) at least one beacon period — the protocol cannot know
// sooner — and (b) finite whenever the victim has a live beaconing
// neighbour.
func TestDetectionLatencyProperty(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		interval := time.Duration(200+src.Intn(1800)) * time.Millisecond
		loss := src.Float64() * 0.08
		cfg := Config{Interval: interval}

		layout, err := field.Generate(field.DefaultSpec(120), rng.New(int64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		sched := sim.NewScheduler()
		net := network.New(layout, network.WithLossRate(loss, src.Fork("loss")))
		p := New(net, sched, src.Fork("beacon"), cfg)
		p.Start()
		// Let the tables converge before crashing anyone.
		warmup := (MissLimit + 2) * (interval + cfg.Jitter())
		if err := sched.RunUntil(warmup, 0); err != nil {
			t.Fatal(err)
		}

		victim := -1
		for id := 0; id < layout.N(); id++ {
			if len(layout.Neighbors(id)) > 0 {
				victim = id
				break
			}
		}
		if victim < 0 {
			t.Fatalf("trial %d: no connected node", trial)
		}

		detected := time.Duration(-1)
		p.OnSuspect(func(id int) {
			if id == victim && detected < 0 {
				detected = sched.Now()
			}
		})
		failAt := sched.Now()
		p.Fail(victim)
		horizon := failAt + 4*cfg.Timeout() + interval
		if err := sched.RunUntil(horizon, 0); err != nil {
			t.Fatal(err)
		}

		if detected < 0 {
			t.Errorf("trial %d (interval=%v loss=%.3f): crash never detected", trial, interval, loss)
			continue
		}
		latency := detected - failAt
		if latency < interval {
			t.Errorf("trial %d (interval=%v loss=%.3f): latency %v < one beacon period",
				trial, interval, loss, latency)
		}
	}
}
