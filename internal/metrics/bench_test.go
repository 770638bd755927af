package metrics

import (
	"io"
	"testing"
)

// BenchmarkSnapshotWrite tracks the exposition path over a registry the
// size of a mid-sized deployment (300 nodes, 3 per-node vecs).
func BenchmarkSnapshotWrite(b *testing.B) {
	r := New()
	const n = 300
	tx, rx := make([]uint64, n), make([]uint64, n)
	for i := range tx {
		tx[i], rx[i] = uint64(i), uint64(2*i)
	}
	r.CounterVecFunc("net_tx_frames_total", "frames", "node", NodeLabels(n), func(i int) uint64 { return tx[i] })
	r.CounterVecFunc("net_rx_frames_total", "frames", "node", NodeLabels(n), func(i int) uint64 { return rx[i] })
	r.NodeGaugeFunc("pool_stored_events", "events", n, func(i int) float64 { return float64(i) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Snapshot().WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
