package metrics

import (
	"strings"
	"testing"

	"pooldcs/internal/stats"
)

// FuzzExpositionWrite drives arbitrary metric names, help strings, label
// values, and values through the Prometheus text writer and asserts
// every emitted sample line stays within the exposition grammar —
// whatever bytes the caller registers, the output must parse.
func FuzzExpositionWrite(f *testing.F) {
	f.Add("net_tx_total", "frames sent", "node-7", 42.5, int64(3))
	f.Add("", "", "", 0.0, int64(0))
	f.Add("9bad name", "help\nwith\nnewlines", "a\"b\\c\nd", -1.25, int64(-9))
	f.Add("x", `\`, "\n", 1e308, int64(1<<62))
	f.Fuzz(func(t *testing.T, name, help, labelValue string, v float64, obs int64) {
		r := New()
		r.CounterFunc(name, help, func() float64 { return 7 })
		r.GaugeFunc(name+"_g", help, func() float64 { return v })
		r.CounterVecFunc(name+"_vec", help, "zone", []string{labelValue, "fixed"}, func(i int) uint64 { return uint64(i) })
		r.NodeGaugeFunc(name+"_node", help, 2, func(int) float64 { return v })
		h := stats.NewIntHistogram()
		h.Add(obs)
		h.Add(obs / 2)
		r.HistogramOf(name+"_hist", help, h)

		snap := r.Snapshot()
		text := snap.Text()
		for _, line := range strings.Split(text, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				if strings.ContainsAny(strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE "), "\n") {
					t.Fatalf("header escaped wrong: %q", line)
				}
				continue
			}
			if !expositionLine.MatchString(line) {
				t.Fatalf("invalid exposition line %q for name=%q label=%q", line, name, labelValue)
			}
		}
		// The JSON path must always encode.
		var b strings.Builder
		if err := snap.WriteJSON(&b); err != nil {
			t.Fatalf("json: %v", err)
		}
	})
}
