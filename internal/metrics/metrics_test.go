package metrics

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
)

func TestDisabledRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	one := func() float64 { return 1 }
	r.CounterFunc("c", "", one)
	r.GaugeFunc("g", "", one)
	r.HistogramOf("h", "", stats.NewIntHistogram())
	r.CounterVecFunc("cv", "", "node", NodeLabels(4), func(int) uint64 { return 1 })
	r.NodeGaugeFunc("gf", "", 4, func(int) float64 { return 7 })
	r.Sample(time.Second)
	if r.Series("c") != nil || r.Names() != nil || r.NodeValues("cv") != nil || r.Value("c") != 0 {
		t.Fatal("disabled registry returned data")
	}
	snap := r.Snapshot()
	if len(snap.Families) != 0 {
		t.Fatal("disabled registry snapshot has families")
	}
	stop := r.StartSampling(sim.NewScheduler(), time.Second)
	stop()
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	var ops uint64
	r.CounterFunc("ops_total", "ops", func() float64 { return float64(ops) })
	depth := 10.0
	r.GaugeFunc("depth", "", func() float64 { return depth })
	lat := stats.NewIntHistogram()
	r.HistogramOf("lat_ms", "", lat)
	ops += 5
	depth -= 3
	for _, v := range []int64{1, 2, 2, 3, 100} {
		lat.Add(v)
	}
	// Views read their owner's state when asked, not when registered.
	for name, want := range map[string]float64{"ops_total": 5, "depth": 7, "lat_ms": 5} {
		if got := r.Value(name); got != want {
			t.Errorf("Value(%q) = %v, want %v", name, got, want)
		}
	}
	snap := r.Snapshot()
	if got := snap.Values("lat_ms"); len(got) != 5 || got[0] != 2 || got[4] != 5 {
		t.Fatalf("histogram points = %v", got)
	}
	if snap.Value("ops_total") != 5 || snap.Value("depth") != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestVectors(t *testing.T) {
	r := New()
	tx := []uint64{1, 0, 5}
	r.CounterVecFunc("tx_total", "frames", "node", NodeLabels(3), func(i int) uint64 { return tx[i] })
	loads := []float64{10, 20, 30}
	r.NodeGaugeFunc("stored", "", 3, func(i int) float64 { return loads[i] })
	if got := r.NodeValues("stored"); !reflect.DeepEqual(got, loads) {
		t.Fatalf("NodeValues = %v", got)
	}
	if got := r.NodeValues("tx_total"); !reflect.DeepEqual(got, []float64{1, 0, 5}) {
		t.Fatalf("NodeValues = %v", got)
	}
	if r.Value("tx_total") != 6 || r.Value("stored") != 60 {
		t.Fatal("vec sums wrong")
	}
	r.GaugeFunc("scalar", "", func() float64 { return 1 })
	if r.NodeValues("nope") != nil || r.NodeValues("scalar") != nil {
		t.Fatal("NodeValues lookup wrong")
	}
	snap := r.Snapshot()
	if p := snap.Families[0].Points[2]; !reflect.DeepEqual(p.Labels, []string{"node", "2"}) || p.Value != 5 {
		t.Fatalf("vec point = %+v", p)
	}
}

// TestDuplicateRegistrationPanics holds the one-view-per-name rule: a
// second family under a taken name, of any kind, panics rather than
// silently dropping its view.
func TestDuplicateRegistrationPanics(t *testing.T) {
	zero := func() float64 { return 0 }
	for name, second := range map[string]func(r *Registry){
		"same kind":  func(r *Registry) { r.CounterFunc("x_total", "second", zero) },
		"other kind": func(r *Registry) { r.GaugeFunc("x_total", "", zero) },
		"histogram":  func(r *Registry) { r.HistogramOf("x-total", "", stats.NewIntHistogram()) },
	} {
		t.Run(name, func(t *testing.T) {
			r := New()
			r.CounterFunc("x_total", "first", zero)
			defer func() {
				if recover() == nil {
					t.Fatal("second registration did not panic")
				}
			}()
			second(r)
		})
	}
}

func TestHistogramOf(t *testing.T) {
	r := New()
	shared := stats.NewIntHistogram()
	shared.Add(10)
	r.HistogramOf("detect_ms", "", shared)
	shared.Add(20)
	if r.Value("detect_ms") != 2 {
		t.Fatal("view did not see the owner's observation")
	}
	r.HistogramOf("other", "", nil)
	if !reflect.DeepEqual(r.Names(), []string{"detect_ms"}) {
		t.Fatalf("nil histogram registered a family: %v", r.Names())
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"ok_name:x9": "ok_name:x9",
		"9lead":      "_lead",
		"has-dash":   "has_dash",
		"a b":        "a_b",
		"":           "_",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSamplingOnScheduler(t *testing.T) {
	r := New()
	sched := sim.NewScheduler()
	var events uint64
	r.CounterFunc("events_total", "", func() float64 { return float64(events) })
	for i := 1; i <= 5; i++ {
		i := i
		sched.At(time.Duration(i)*time.Second, func() { events += uint64(i) })
	}
	stop := r.StartSampling(sched, 2*time.Second)
	sched.At(7*time.Second, stop)
	sched.RunUntil(10*time.Second, 0)
	got := r.Series("events_total")
	// Ticks at 2s (after the 2s increment: 1+2=3), 4s (+3+4=10), 6s (+5=15);
	// the 8s tick is cancelled by stop at 7s.
	want := []Sample{{2 * time.Second, 3}, {4 * time.Second, 10}, {6 * time.Second, 15}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	sums := r.Summaries(8)
	if len(sums) != 1 || sums[0].Name != "events_total" || sums[0].Points != 3 ||
		sums[0].First != 3 || sums[0].Last != 15 || sums[0].Min != 3 || sums[0].Max != 15 {
		t.Fatalf("summaries = %+v", sums)
	}
	if math.Abs(sums[0].Mean-28.0/3) > 1e-9 {
		t.Fatalf("mean = %v", sums[0].Mean)
	}
	if sums[0].Spark == "" {
		t.Fatal("sparkline empty")
	}
}

func TestSampleScalarReductions(t *testing.T) {
	r := New()
	r.CounterFunc("c", "", func() float64 { return 2 })
	r.GaugeFunc("g", "", func() float64 { return 5 })
	r.CounterVecFunc("cv", "", "node", NodeLabels(2), func(int) uint64 { return 1 })
	h := stats.NewIntHistogram()
	h.Add(1)
	h.Add(9)
	r.HistogramOf("h", "", h)
	r.Sample(time.Second)
	for name, want := range map[string]float64{"c": 2, "g": 5, "cv": 2, "h": 2} {
		s := r.Series(name)
		if len(s) != 1 || s[0].V != want {
			t.Errorf("series %q = %v, want one point %v", name, s, want)
		}
		if r.Value(name) != want {
			t.Errorf("Value(%q) = %v, want %v", name, r.Value(name), want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if sparkline(nil, 8) != "" {
		t.Fatal("empty series should render empty")
	}
	flat := []Sample{{0, 5}, {1, 5}, {2, 5}}
	if got := sparkline(flat, 3); got != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
	rising := []Sample{{0, 0}, {1, 7}}
	if got := sparkline(rising, 2); got != "▁█" {
		t.Fatalf("rising sparkline = %q", got)
	}
}
