package chaos

import (
	"testing"
	"time"

	"pooldcs/internal/discovery"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// fakeDetector is a hand-cranked FailureDetector: tests decide exactly
// when suspicion fires.
type fakeDetector struct {
	failed    map[int]bool
	suspected map[int]bool
	onSuspect func(id int)
}

func newFakeDetector() *fakeDetector {
	return &fakeDetector{failed: map[int]bool{}, suspected: map[int]bool{}}
}

func (d *fakeDetector) Fail(id int)            { d.failed[id] = true }
func (d *fakeDetector) Recover(id int)         { delete(d.failed, id); delete(d.suspected, id) }
func (d *fakeDetector) Suspect(id int) bool    { return d.suspected[id] }
func (d *fakeDetector) OnSuspect(fn func(int)) { d.onSuspect = fn }
func (d *fakeDetector) raise(id int)           { d.suspected[id] = true; d.onSuspect(id) }

func detectorUniverse(t *testing.T, seed int64) (*universe, *fakeDetector) {
	t.Helper()
	l, err := field.Generate(field.DefaultSpec(100), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	net := network.New(l)
	router := gpsr.New(l)
	p, err := pool.New(net, router, 3, rng.New(seed+1), pool.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	det := newFakeDetector()
	u := &universe{sched: sched, net: net, router: router, pool: p}
	u.engine = NewEngine(sched, net, router, []System{p}, WithFailureDetection(det))
	return u, det
}

// With a detector, a crash silences only the physical layers; routing
// exclusion and storage repair wait for the suspicion, and the gap lands
// in the detection-latency histogram.
func TestDetectorDefersTeardown(t *testing.T) {
	u, det := detectorUniverse(t, 820)
	victim := 13

	u.engine.CrashNode(victim)
	if u.net.Alive(victim) {
		t.Error("radio still on the air after crash")
	}
	if !det.failed[victim] {
		t.Error("detector not told the node went silent")
	}
	if u.router.Excluded(victim) {
		t.Error("router excluded the corpse before detection")
	}
	if u.pool.Failed(victim) {
		t.Error("storage repaired the corpse before detection")
	}
	if u.engine.DetectionLatency().Total() != 0 {
		t.Error("latency recorded before detection")
	}

	// Suspicion fires 3 virtual seconds later.
	if err := u.sched.At(3*time.Second, func() { det.raise(victim) }); err != nil {
		t.Fatal(err)
	}
	u.sched.Run()

	if !u.router.Excluded(victim) || !u.pool.Failed(victim) {
		t.Error("suspicion did not run protocol teardown")
	}
	h := u.engine.DetectionLatency()
	if h.Total() != 1 || h.Min() != 3000 {
		t.Errorf("detection latency histogram = %v, want one 3000 ms sample", h)
	}
}

// A suspicion for a node the engine never crashed (a lossy-link false
// positive) must not tear anything down.
func TestSpuriousSuspicionIgnored(t *testing.T) {
	u, det := detectorUniverse(t, 821)
	det.raise(42)
	if u.router.Excluded(42) || u.pool.Failed(42) {
		t.Error("false suspicion tore down an alive node")
	}
	if u.engine.DetectionLatency().Total() != 0 {
		t.Error("false suspicion recorded a latency sample")
	}
}

// A crash of a node that already carries a standing suspicion (raised
// earlier by lossy links) tears down immediately — the suspicion
// callback will not fire again — and records no latency sample.
func TestCrashOfAlreadySuspectedNode(t *testing.T) {
	u, det := detectorUniverse(t, 822)
	victim := 7
	det.suspected[victim] = true

	u.engine.CrashNode(victim)
	if !u.router.Excluded(victim) || !u.pool.Failed(victim) {
		t.Error("pre-suspected crash did not tear down immediately")
	}
	if u.engine.DetectionLatency().Total() != 0 {
		t.Error("pre-detected crash recorded a latency sample")
	}
}

// Recovery before detection cancels the pending teardown: the node kept
// its storage (the crash was a reboot blip shorter than the detection
// window), and a late suspicion for it is ignored.
func TestRecoveryBeforeDetection(t *testing.T) {
	u, det := detectorUniverse(t, 823)
	victim := 21
	u.engine.CrashNode(victim)
	u.engine.RecoverNode(victim)

	if !u.net.Alive(victim) || u.router.Excluded(victim) || u.pool.Failed(victim) {
		t.Error("blip recovery left a layer down")
	}
	if det.failed[victim] {
		t.Error("detector still holds the recovered node silent")
	}
	// The (now stale) suspicion arrives after the recovery.
	det.raise(victim)
	if u.router.Excluded(victim) || u.pool.Failed(victim) {
		t.Error("stale suspicion tore down a recovered node")
	}
	if u.engine.DetectionLatency().Total() != 0 {
		t.Errorf("stale suspicion recorded a latency sample")
	}
}

// End-to-end with the real beacon protocol: detection latency emerges
// from the beacon exchange and lands within [Interval, Timeout + one
// sweep period].
func TestBeaconDrivenDetection(t *testing.T) {
	l, err := field.Generate(field.DefaultSpec(150), rng.New(830))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	net := network.New(l)
	router := gpsr.New(l)
	p, err := pool.New(net, router, 3, rng.New(831), pool.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	cfg := discovery.Config{Interval: time.Second}
	disc := discovery.New(net, sched, rng.New(832), cfg)
	engine := NewEngine(sched, net, router, []System{p}, WithFailureDetection(disc))
	disc.Start()

	victim := 33
	crashAt := 5 * time.Second
	if err := sched.At(crashAt, func() { engine.CrashNode(victim) }); err != nil {
		t.Fatal(err)
	}
	horizon := crashAt + 3*disc.Config().Timeout()
	if err := sched.RunUntil(horizon, 0); err != nil {
		t.Fatal(err)
	}
	disc.Stop()

	if !router.Excluded(victim) || !p.Failed(victim) {
		t.Fatal("beacon timeout never triggered teardown")
	}
	h := engine.DetectionLatency()
	if h.Total() != 1 {
		t.Fatalf("latency samples = %d, want 1", h.Total())
	}
	lat := time.Duration(h.Min()) * time.Millisecond
	ecfg := disc.Config()
	if lat < ecfg.Interval {
		t.Errorf("latency %v < one beacon period", lat)
	}
	if lat > ecfg.Timeout()+ecfg.Interval+ecfg.Jitter() {
		t.Errorf("latency %v far beyond timeout %v", lat, ecfg.Timeout())
	}
}
