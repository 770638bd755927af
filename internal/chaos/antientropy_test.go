package chaos

import (
	"testing"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/event"
	"pooldcs/internal/pool"
	"pooldcs/internal/pooltest"
	"pooldcs/internal/rng"
)

// TestChaosDivergenceConvergesUnderRepair races background anti-entropy
// against a live fault plan: crashes (detected late through the fake
// detector) and recoveries inject mirror/primary divergence while
// inserts keep flowing, and the reconciler — kicked by the engine's
// recovery hook and ticking on its period — must leave every replica
// pair converged by the end of the horizon.
func TestChaosDivergenceConvergesUnderRepair(t *testing.T) {
	u, det := detectorUniverse(t, 900)
	loadPool(t, u.pool, 150, 901)

	rec := antientropy.New(u.sched, u.net, u.router, antientropy.Config{Period: 2 * time.Second}, u.pool)
	rec.Start()
	kicked := 0
	u.engine.onRecover = func(id int) { kicked++; rec.Kick() }

	// Fault script: three crash/blip cycles spread over the horizon.
	// Victims are mirror nodes of loaded replica pairs, so inserts during
	// the undetected window (suspicion raised three virtual seconds after
	// the crash) actually lose mirror copies.
	victims := make([]int, 0, 3)
	seen := map[int]bool{}
	for _, p := range u.pool.ReplicaPairs() {
		if len(p.Replica.AppendDigests(nil)) == 0 {
			continue
		}
		v := p.Replica.Node()
		if !seen[v] {
			seen[v] = true
			victims = append(victims, v)
		}
		if len(victims) == 3 {
			break
		}
	}
	if len(victims) < 3 {
		t.Fatalf("only %d loaded mirror nodes", len(victims))
	}
	for i, v := range victims {
		v := v
		base := time.Duration(5+12*i) * time.Second
		_ = u.sched.At(base, func() { u.engine.CrashNode(v) })
		_ = u.sched.At(base+3*time.Second, func() {
			if u.engine.Down(v) {
				det.raise(v)
			}
		})
		_ = u.sched.At(base+6*time.Second, func() { u.engine.RecoverNode(v) })
	}

	// Concurrent inserts throughout: eight per virtual second. Degradable
	// failures are the point — some of them leave primary-only copies.
	insSrc := rng.New(903)
	for tick := 0; tick < 400; tick++ {
		seq := uint64(50_000 + tick)
		at := time.Duration(tick) * 125 * time.Millisecond
		_ = u.sched.At(at, func() {
			e := event.New(insSrc.Float64(), insSrc.Float64(), insSrc.Float64())
			e.Seq = seq
			origin := insSrc.Intn(100)
			if u.engine.Down(origin) {
				return
			}
			_ = u.pool.Insert(origin, e)
		})
	}

	// Guaranteed divergence mid-horizon: primary-only copies injected
	// through the pair's Store interface model mirror writes lost in the
	// undetected windows above (random inserts may or may not hit a
	// victim's cell, so they alone can't anchor a strict assertion).
	_ = u.sched.At(20*time.Second, func() {
		pairs := u.pool.ReplicaPairs()
		if len(pairs) == 0 {
			t.Error("no replica pairs at injection time")
			return
		}
		for i := 0; i < 5; i++ {
			e := event.New(0.5, 0.5, 0.5)
			e.Seq = uint64(70_000 + i)
			pairs[0].Primary.Insert(e)
		}
	})

	// In steps, so that the kept fingerprints and the pair walk are
	// checked between any two of the writes above: the inserts, the crash
	// repairs and the sessions' own inserts must each keep the fingerprint
	// of the copy they change.
	for at := time.Duration(0); at <= 60*time.Second; at += 125 * time.Millisecond {
		if err := u.sched.RunUntil(at, 2_000_000); err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{u.pool.CheckStore(), pooltest.CheckReplicaPairs(u.pool)} {
			if err != nil {
				t.Fatalf("at %v: %v", at, err)
			}
		}
	}
	rec.Stop()

	if kicked == 0 {
		t.Fatal("recovery hook never fired")
	}
	if errs := rec.Errs(); len(errs) != 0 {
		t.Fatalf("non-degradable reconciliation errors: %v", errs)
	}
	if rec.Sessions() == 0 {
		t.Fatal("no reconciliation sessions completed")
	}
	if d := antientropy.Divergence(u.pool); d != 0 {
		t.Fatalf("divergence %d at horizon; background repair failed to converge", d)
	}
	if rec.EventsMoved() < 5 {
		t.Fatalf("events moved = %d, want >= 5 (injected divergence must be repaired)", rec.EventsMoved())
	}
}

// loadPool inserts n events through the pool from random origins.
func loadPool(t testing.TB, p *pool.System, n int, seed int64) {
	t.Helper()
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		if err := p.Insert(src.Intn(100), e); err != nil {
			t.Fatal(err)
		}
	}
}
