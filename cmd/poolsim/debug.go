package main

import (
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"pooldcs/internal/metrics"
	"pooldcs/internal/stats"
)

// debugServer serves net/http/pprof and a Prometheus-style /metrics
// endpoint while experiments run, so long regenerations (-debug-addr
// localhost:6060; poolsim all takes minutes) can be profiled and
// watched live. The registry holds poolsim's own process metrics;
// access is guarded by mu because the metrics package is not
// goroutine-safe and the HTTP handlers run off the main goroutine.
type debugServer struct {
	mu  sync.Mutex
	reg *metrics.Registry
	ln  net.Listener

	// experiments and failures count finished and failed experiments;
	// durations holds their wall-clock runtimes in milliseconds.
	experiments, failures uint64
	durations             *stats.IntHistogram
}

// newDebugServer binds addr (host:port; port 0 picks a free one) and
// starts serving in the background. Close the listener to stop.
func newDebugServer(addr string) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	s := &debugServer{reg: reg, ln: ln, durations: stats.NewIntHistogram()}
	reg.CounterFunc("poolsim_experiments_total", "experiments completed by this process",
		func() float64 { return float64(s.experiments) })
	reg.CounterFunc("poolsim_experiment_failures_total", "experiments that returned an error",
		func() float64 { return float64(s.failures) })
	reg.HistogramOf("poolsim_experiment_duration_ms", "wall-clock runtime per experiment", s.durations)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return s, nil
}

// addr returns the bound address (useful when the port was 0).
func (s *debugServer) addr() string { return s.ln.Addr().String() }

// close stops the listener.
func (s *debugServer) close() { _ = s.ln.Close() }

// record books one finished experiment.
func (s *debugServer) record(d time.Duration, failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.experiments++
	if failed {
		s.failures++
	}
	s.durations.Add(d.Milliseconds())
}

// serveMetrics renders the registry in the Prometheus text exposition.
func (s *debugServer) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := s.reg.Snapshot()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = snap.WriteTo(w)
}
