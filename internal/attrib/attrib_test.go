package attrib

import (
	"strings"
	"testing"
	"time"

	"pooldcs/internal/trace"
)

type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// checkSums asserts the exactness invariant: phase durations sum to the
// span's wall-clock extent, nothing double-counted or lost.
func checkSums(t *testing.T, bds []Breakdown) {
	t.Helper()
	for i := range bds {
		b := &bds[i]
		var sum time.Duration
		for p := Phase(0); p < NumPhases; p++ {
			if b.Phases[p] < 0 {
				t.Errorf("span %d phase %v negative: %v", b.Span, p, b.Phases[p])
			}
			sum += b.Phases[p]
		}
		if sum != b.Total {
			t.Errorf("span %d: phases sum to %v, total %v", b.Span, sum, b.Total)
		}
		if b.Total != b.End-b.Start {
			t.Errorf("span %d: total %v != extent %v", b.Span, b.Total, b.End-b.Start)
		}
	}
}

func attribute(t *testing.T, events trace.Log, opts Options) []Breakdown {
	t.Helper()
	a, err := trace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	bds := Attribute(events, a, opts)
	checkSums(t, bds)
	return bds
}

func TestAttributePhases(t *testing.T) {
	clock := &fakeClock{}
	tr := trace.New(clock)

	// A query with every phase: transmit 2ms, ARQ stall 3ms, queue 4ms,
	// service 5ms, retry detour 6ms, merge 1ms, leading other 1ms.
	clock.t = ms(0)
	q := tr.Begin(trace.OpQuery, 0, "")
	clock.t = ms(1) // [0,1) other
	tr.Hop(0, 1, "query", 8, 1, false)
	clock.t = ms(3) // [1,3) transmit
	tr.Hop(1, 2, "query", 8, 1, true)
	clock.t = ms(6) // [3,6) arq
	tr.Record(trace.TypeWait, 2, 1, "")
	tr.RecordAt(ms(10), trace.TypeServe, 2, 0, "") // [6,10) queue
	clock.t = ms(15)                               // [10,15) service
	r := tr.BeginAt(q, trace.OpRetry, 2, "mirror")
	tr.PushSpan(r)
	tr.Hop(2, 3, "query", 8, 1, false)
	tr.PopSpan()
	clock.t = ms(21) // [15,21) retry
	tr.EndSpan(r)
	tr.Record(trace.TypeReply, 0, 9, "")
	clock.t = ms(22) // [21,22) merge
	tr.End()

	bds := attribute(t, tr.Events(), Options{})
	if len(bds) != 1 {
		t.Fatalf("breakdowns = %d, want 1", len(bds))
	}
	b := bds[0]
	want := map[Phase]time.Duration{
		PhaseOther:    ms(1),
		PhaseTransmit: ms(2),
		PhaseARQ:      ms(3),
		PhaseQueue:    ms(4),
		PhaseService:  ms(5),
		PhaseRetry:    ms(6),
		PhaseMerge:    ms(1),
		PhaseRepair:   0,
	}
	for p, d := range want {
		if b.Phases[p] != d {
			t.Errorf("%v = %v, want %v", p, b.Phases[p], d)
		}
	}
	if b.Total != ms(22) {
		t.Errorf("total = %v, want 22ms", b.Total)
	}
	if got := b.Share(PhaseService); got < 0.22 || got > 0.23 {
		t.Errorf("service share = %v", got)
	}
	if s := b.String(); !strings.Contains(s, "retry=6ms") || !strings.Contains(s, "query#1") {
		t.Errorf("breakdown string = %q", s)
	}
}

func TestAttributeRepairReclassification(t *testing.T) {
	clock := &fakeClock{}
	tr := trace.New(clock)

	// Node 7 crashes at 2ms; repair declares done at 20ms. A query
	// stalls on ARQ from 5ms to 11ms — entirely inside the window — so
	// the stall is blamed on repair, not ARQ.
	clock.t = ms(2)
	tr.Record(trace.TypeFault, 7, 0, "crash")
	clock.t = ms(4)
	tr.Begin(trace.OpQuery, 0, "")
	clock.t = ms(5)
	tr.Hop(0, 7, "query", 8, 1, true)
	clock.t = ms(11)
	tr.Hop(0, 3, "query", 8, 1, false)
	clock.t = ms(12)
	tr.End()
	clock.t = ms(20)
	tr.Record(trace.TypeRepair, 7, 0, "done")

	bds := attribute(t, tr.Events(), Options{})
	b := bds[0]
	if b.Phases[PhaseRepair] != ms(6) || b.Phases[PhaseARQ] != 0 {
		t.Errorf("repair=%v arq=%v, want 6ms repair, 0 arq", b.Phases[PhaseRepair], b.Phases[PhaseARQ])
	}
	// Successful transmit inside the window stays transmit: only stalls
	// are interference.
	if b.Phases[PhaseTransmit] != ms(1) {
		t.Errorf("transmit = %v, want 1ms", b.Phases[PhaseTransmit])
	}
	if b.Phases[PhaseOther] != ms(1) {
		t.Errorf("other = %v, want the 1ms before the first hop", b.Phases[PhaseOther])
	}
}

func TestAttributeRepairWindowSplit(t *testing.T) {
	clock := &fakeClock{}
	tr := trace.New(clock)

	// Window [4ms, 8ms) covers only part of a [2ms, 12ms) ARQ stall:
	// the overlap is blamed on repair, the rest stays ARQ.
	clock.t = ms(0)
	tr.Begin(trace.OpQuery, 0, "")
	clock.t = ms(2)
	tr.Hop(0, 1, "query", 8, 1, true)
	clock.t = ms(12)
	tr.Hop(0, 2, "query", 8, 1, false)
	clock.t = ms(13)
	tr.End()
	clock.t = ms(4)
	tr.Record(trace.TypeFault, 5, 0, "crash")
	clock.t = ms(8)
	tr.Record(trace.TypeFault, 5, 0, "recover")

	bds := attribute(t, tr.Events(), Options{})
	b := bds[0]
	if b.Phases[PhaseRepair] != ms(4) {
		t.Errorf("repair = %v, want the 4ms overlap", b.Phases[PhaseRepair])
	}
	if b.Phases[PhaseARQ] != ms(6) {
		t.Errorf("arq = %v, want the 6ms outside the window", b.Phases[PhaseARQ])
	}
}

func TestRepairWindows(t *testing.T) {
	events := trace.LogOf([]trace.Event{
		{T: ms(1), Type: trace.TypeFault, Node: 3, Detail: "crash"},
		{T: ms(2), Type: trace.TypeFault, Node: 3, Detail: "crash"}, // dup ignored
		{T: ms(4), Type: trace.TypeRepair, Node: 3, Detail: "done"},
		{T: ms(6), Type: trace.TypeFault, Node: 9, Detail: "crash"},
		// node 9 never closes: extends to horizon
	})
	ws := RepairWindows(events, ms(10))
	if len(ws) != 2 {
		t.Fatalf("windows = %+v, want 2", ws)
	}
	if ws[0] != (Window{Node: 3, Start: ms(1), End: ms(4)}) {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1] != (Window{Node: 9, Start: ms(6), End: ms(10)}) {
		t.Errorf("window 1 = %+v", ws[1])
	}

	union := mergeWindows([]Window{
		{Start: ms(1), End: ms(5)},
		{Start: ms(3), End: ms(7)},
		{Start: ms(9), End: ms(10)},
	})
	if len(union) != 2 || union[0].End != ms(7) {
		t.Errorf("union = %+v", union)
	}
	if got := overlap(union, ms(0), ms(20)); got != ms(7) {
		t.Errorf("overlap = %v, want 7ms", got)
	}
	if mergeWindows(nil) != nil {
		t.Error("empty merge not nil")
	}
}

func TestAttributeOpsFilterAndZeroDuration(t *testing.T) {
	tr := trace.New(nil) // zero clock: sync-style trace
	tr.Begin(trace.OpInsert, 0, "")
	tr.Hop(0, 1, "insert", 8, 1, false)
	tr.End()
	tr.Begin(trace.OpQuery, 0, "")
	tr.End()

	// Default: queries only.
	bds := attribute(t, tr.Events(), Options{})
	if len(bds) != 1 || bds[0].Op != trace.OpQuery {
		t.Fatalf("default breakdowns = %+v", bds)
	}
	if bds[0].Total != 0 || bds[0].Share(PhaseTransmit) != 0 {
		t.Errorf("zero-duration breakdown not all-zero: %+v", bds[0])
	}

	both := attribute(t, tr.Events(), Options{Ops: []trace.Op{trace.OpInsert, trace.OpQuery}})
	if len(both) != 2 {
		t.Fatalf("ops-filtered breakdowns = %d, want 2", len(both))
	}
}

func TestAttributeTruncatedTrace(t *testing.T) {
	clock := &fakeClock{}
	tr := trace.NewRing(clock, 4)
	for q := 0; q < 5; q++ {
		clock.t = ms(10 * q)
		tr.Begin(trace.OpQuery, q, "")
		clock.t = ms(10*q + 1)
		tr.Hop(q, q+1, "query", 8, 1, false)
		clock.t = ms(10*q + 3)
		tr.End()
	}
	events := tr.Events()
	a, err := trace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truncated {
		t.Fatal("ring trace not truncated")
	}
	bds := Attribute(events, a, Options{})
	checkSums(t, bds)
	if len(bds) == 0 {
		t.Error("no breakdowns from a truncated trace")
	}
}

func TestBlameTable(t *testing.T) {
	var bds []Breakdown
	for i := 1; i <= 100; i++ {
		b := Breakdown{Span: uint64(i), Op: trace.OpQuery, Total: ms(i)}
		b.Phases[PhaseTransmit] = ms(i) / 2
		b.Phases[PhaseQueue] = ms(i) - ms(i)/2
		bds = append(bds, b)
	}
	bt := Blame(bds)
	if bt.Queries != 100 || len(bt.Cohorts) != 3 {
		t.Fatalf("table = %+v", bt)
	}
	p99 := bt.Cohorts[2]
	if p99.Pct != 99 || p99.Floor != ms(99) || p99.Queries != 2 {
		t.Errorf("p99 cohort = %+v", p99)
	}
	if s := p99.Share(PhaseTransmit); s < 0.49 || s > 0.51 {
		t.Errorf("p99 transmit share = %v", s)
	}
	rendered := bt.String()
	for _, want := range []string{"cohort", "transmit%", "p99", "p50"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered table missing %q:\n%s", want, rendered)
		}
	}
	if empty := Blame(nil); empty.Queries != 0 || len(empty.Cohorts) != 0 {
		t.Errorf("empty blame = %+v", empty)
	}
}

func TestPhaseStringAndList(t *testing.T) {
	if PhaseTransmit.String() != "transmit" || PhaseRepair.String() != "repair" {
		t.Error("phase names wrong")
	}
	if !strings.Contains(Phase(42).String(), "42") {
		t.Error("out-of-range phase name")
	}
	if ps := Phases(); len(ps) != int(NumPhases) || ps[0] != PhaseTransmit {
		t.Errorf("Phases() = %v", ps)
	}
}
