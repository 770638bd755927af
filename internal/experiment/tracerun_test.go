package experiment

import (
	"testing"
	"time"

	"pooldcs/internal/attrib"
	"pooldcs/internal/network"
	"pooldcs/internal/trace"
)

func smallTraceOptions() TraceOptions {
	o := DefaultTraceOptions()
	o.Nodes = 150
	o.EventsPerNode = 2
	o.Queries = 8
	return o
}

func TestTraceRunValidation(t *testing.T) {
	o := smallTraceOptions()
	o.System = "cuckoo"
	if _, err := TraceRun(o); err == nil {
		t.Error("unknown system accepted")
	}
	o = smallTraceOptions()
	o.System = "dim"
	o.Subscriptions = 3
	if _, err := TraceRun(o); err == nil {
		t.Error("dim with subscriptions accepted")
	}
	o.Subscriptions = 0
	o.Failures = 2
	if _, err := TraceRun(o); err == nil {
		t.Error("dim with failures accepted")
	}
	o = smallTraceOptions()
	o.System = "node"
	o.Subscriptions = 1
	if _, err := TraceRun(o); err == nil {
		t.Error("node with subscriptions accepted")
	}
}

func TestTraceRunDeterministic(t *testing.T) {
	o := smallTraceOptions()
	r1, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Events) != len(r2.Events) || r1.Matches != r2.Matches {
		t.Fatalf("same seed diverged: %d/%d events, %d/%d matches",
			len(r1.Events), len(r2.Events), r1.Matches, r2.Matches)
	}
	for i := range r1.Events {
		if r1.Events[i] != r2.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, r1.Events[i], r2.Events[i])
		}
	}
}

// TestTraceRunCountersConsistency is the headline acceptance check: the
// by-kind traffic breakdown reconstructed from the trace must equal
// network.Counters exactly, for both systems and with the continuous-query
// and failure paths exercised.
func TestTraceRunCountersConsistency(t *testing.T) {
	cases := []struct {
		name string
		opts func() TraceOptions
	}{
		{"pool", smallTraceOptions},
		{"pool with subs and failures", func() TraceOptions {
			o := smallTraceOptions()
			o.Subscriptions = 4
			o.Failures = 3
			return o
		}},
		{"dim", func() TraceOptions {
			o := smallTraceOptions()
			o.System = "dim"
			return o
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := TraceRun(c.opts())
			if err != nil {
				t.Fatal(err)
			}
			a, err := trace.Analyze(trace.LogOf(res.Events))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range network.Kinds() {
				kt := a.ByKind[k.String()]
				if kt.Frames != res.Counters.Messages[k] {
					t.Errorf("%v frames: trace %d, counters %d", k, kt.Frames, res.Counters.Messages[k])
				}
				if kt.Bytes != res.Counters.Bytes[k] {
					t.Errorf("%v bytes: trace %d, counters %d", k, kt.Bytes, res.Counters.Bytes[k])
				}
			}
			if a.TotalFrames() != res.Counters.Total() {
				t.Errorf("total: trace %d, counters %d", a.TotalFrames(), res.Counters.Total())
			}
			if a.BackgroundFrames != 0 {
				t.Errorf("background frames = %d; every message should be spanned", a.BackgroundFrames)
			}
		})
	}
}

func TestTraceRunSubscriptionsNotify(t *testing.T) {
	o := smallTraceOptions()
	o.Subscriptions = 6
	res, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(trace.LogOf(res.Events))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.RootsByOp(trace.OpSubscribe)); got != 6 {
		t.Errorf("subscribe spans = %d, want 6", got)
	}
	var notifies int
	for _, ev := range res.Events {
		if ev.Type == trace.TypeNotify {
			notifies++
		}
	}
	if notifies != res.Notifications {
		t.Errorf("notify records = %d, Notifications = %d", notifies, res.Notifications)
	}
}

func TestTraceRunFailures(t *testing.T) {
	o := smallTraceOptions()
	o.Failures = 5
	res, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(trace.LogOf(res.Events))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.RootsByOp(trace.OpFail)); got != 5 {
		t.Errorf("failure spans = %d, want 5", got)
	}
}

// TestTraceRunNodeDurations: the actor-engine mode is the one whose
// traces carry real time. Every query span must have positive duration,
// the attribution must partition each span exactly, and a run with
// failures must blame some latency on repair interference.
func TestTraceRunNodeDurations(t *testing.T) {
	o := smallTraceOptions()
	o.System = "node"
	o.Queries = 12
	res, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.LogOf(res.Events)
	a, err := trace.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	roots := a.RootsByOp(trace.OpQuery)
	if len(roots) != o.Queries {
		t.Fatalf("query spans = %d, want %d", len(roots), o.Queries)
	}
	bds := attrib.Attribute(log, a, attrib.Options{})
	if len(bds) != o.Queries {
		t.Fatalf("breakdowns = %d, want %d", len(bds), o.Queries)
	}
	for _, bd := range bds {
		if bd.Total <= 0 {
			t.Errorf("span %d: total %v, want > 0", bd.Span, bd.Total)
		}
		var sum int64
		for _, d := range bd.Phases {
			sum += int64(d)
		}
		if sum != int64(bd.Total) {
			t.Errorf("span %d: phases sum %d != total %d", bd.Span, sum, bd.Total)
		}
		if bd.Phases[attrib.PhaseRepair] != 0 {
			t.Errorf("span %d: repair phase %v in a healthy run", bd.Span, bd.Phases[attrib.PhaseRepair])
		}
	}
	if res.Matches == 0 {
		t.Error("node queries returned no matches")
	}

	o.Failures = 4
	o.Seed = 7
	fres, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	flog := trace.LogOf(fres.Events)
	fa, err := trace.Analyze(flog)
	if err != nil {
		t.Fatal(err)
	}
	var horizon time.Duration
	for _, ev := range fres.Events {
		if ev.T > horizon {
			horizon = ev.T
		}
	}
	if got := len(attrib.RepairWindows(flog, horizon)); got == 0 {
		t.Error("failure run produced no repair windows")
	}
	var repair int64
	for _, bd := range attrib.Attribute(flog, fa, attrib.Options{}) {
		repair += int64(bd.Phases[attrib.PhaseRepair])
	}
	if repair == 0 {
		t.Error("no latency attributed to repair interference under failures")
	}
}

func TestTraceRunNodeDeterministic(t *testing.T) {
	o := smallTraceOptions()
	o.System = "node"
	o.Failures = 3
	r1, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TraceRun(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Events) != len(r2.Events) || r1.Matches != r2.Matches {
		t.Fatalf("same seed diverged: %d/%d events, %d/%d matches",
			len(r1.Events), len(r2.Events), r1.Matches, r2.Matches)
	}
	for i := range r1.Events {
		if r1.Events[i] != r2.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, r1.Events[i], r2.Events[i])
		}
	}
}
