# Build and verification targets. `make check` is the tier-1 gate:
# everything must build, vet clean, and pass the test suite with the race
# detector on.

GO ?= go

.PHONY: build test vet race race-parallel fuzz chaos conformance cover-ght cover-metrics cover-antientropy cover-node cover-trace cover-attrib cover-sim smoke-bench micro-bench loadtest check bench bench-compare bench-e2e golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The parallel experiment runner's determinism contract, exercised with
# real contention: 8 scheduler threads regardless of host core count.
# The load harness rides along — its saturation sweep fans out over the
# same worker pool, and the poolload goldens must stay byte-identical
# under the race detector. The forEach workers share one gpsr.Router, so
# its concurrent-readers contract (lock-free greedy memo) is raced here
# too.
race-parallel:
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/experiment \
		-run 'TestParallelMatchesSequential|TestForEachOrderAndErrors|TestSaturationParallelInvariance'
	GOMAXPROCS=8 $(GO) test -race -count=10 ./internal/gpsr -run TestRouterConcurrentReaders
	GOMAXPROCS=8 $(GO) test -race -count=1 ./cmd/poolload -run Golden

# Short fuzz smoke: random fault plans + queries must never panic or
# over-report completeness, the metrics exposition writer must stay
# grammar-clean on arbitrary registries, and the rateless reconciliation
# codec must never decode to a wrong difference; the router's greedy
# memo must never change a route. go test accepts one -fuzz target per
# invocation, hence the separate runs.
fuzz:
	$(GO) test ./internal/chaos -run=NONE -fuzz=FuzzResolveUnderFaults -fuzztime=10s
	$(GO) test ./internal/metrics -run=NONE -fuzz=FuzzExpositionWrite -fuzztime=10s
	$(GO) test ./internal/antientropy -run=NONE -fuzz=FuzzReconcileDecode -fuzztime=10s
	$(GO) test ./internal/node -run=NONE -fuzz=FuzzRepairPackets -fuzztime=10s
	$(GO) test ./internal/attrib -run=NONE -fuzz=FuzzAutopsy -fuzztime=10s
	$(GO) test ./internal/sim -run=NONE -fuzz=FuzzSchedulerOrdering -fuzztime=10s
	$(GO) test ./internal/gpsr -run=NONE -fuzz=FuzzRouteMemo -fuzztime=10s

# Race-enabled sweep of the chaos seeds (fault injection, churn
# experiment, pool/dim repair paths).
chaos:
	$(GO) test -race -count=1 ./internal/chaos ./internal/experiment -run 'Churn|Fault|Chaos|Fail|Degrad'

# Cross-system conformance: the systemtest scenario table against every
# System implementation, race detector on.
conformance:
	$(GO) test -run TestConformance -race ./internal/systemtest/...

# The GHT fault surface is the newest storage code; hold its package
# coverage at or above 80%.
cover-ght:
	$(GO) test -coverprofile=/tmp/ght.cover ./internal/ght
	@total=$$($(GO) tool cover -func=/tmp/ght.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/ght coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || \
		{ echo "internal/ght coverage $$total% below the 80% gate"; exit 1; }

# The metrics registry feeds every experiment table; hold its package
# coverage at or above 80% like the GHT fault surface.
cover-metrics:
	$(GO) test -coverprofile=/tmp/metrics.cover ./internal/metrics
	@total=$$($(GO) tool cover -func=/tmp/metrics.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/metrics coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || \
		{ echo "internal/metrics coverage $$total% below the 80% gate"; exit 1; }

# The anti-entropy codec and session machinery repair every replicated
# store; hold its package coverage at or above 80%.
cover-antientropy:
	$(GO) test -coverprofile=/tmp/antientropy.cover ./internal/antientropy
	@total=$$($(GO) tool cover -func=/tmp/antientropy.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/antientropy coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || \
		{ echo "internal/antientropy coverage $$total% below the 80% gate"; exit 1; }

# The actor engine's message-driven repair protocol carries the fault
# model this repo's equivalence claims rest on; hold its package
# coverage at or above 80%.
cover-node:
	$(GO) test -coverprofile=/tmp/node.cover ./internal/node
	@total=$$($(GO) tool cover -func=/tmp/node.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/node coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || \
		{ echo "internal/node coverage $$total% below the 80% gate"; exit 1; }

# The flight recorder's tolerant analyzer is what every autopsy rests
# on — it must handle evicted, unclosed, and malformed spans without
# erroring; hold its package coverage at or above 80%.
cover-trace:
	$(GO) test -coverprofile=/tmp/trace.cover ./internal/trace
	@total=$$($(GO) tool cover -func=/tmp/trace.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/trace coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || \
		{ echo "internal/trace coverage $$total% below the 80% gate"; exit 1; }

# The critical-path analyzer's sum-to-total invariant is the autopsy's
# correctness claim; hold its package coverage at or above 80%.
cover-attrib:
	$(GO) test -coverprofile=/tmp/attrib.cover ./internal/attrib
	@total=$$($(GO) tool cover -func=/tmp/attrib.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/attrib coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || \
		{ echo "internal/attrib coverage $$total% below the 80% gate"; exit 1; }

# The event kernel orders every message the actor engine ever delivers;
# a wrong branch in the ladder queue silently reorders simulations
# instead of crashing them. Hold it to 90% — stricter than the 80% the
# other kernels get, because the property/fuzz suite covers it that
# deeply anyway.
cover-sim:
	$(GO) test -coverprofile=/tmp/sim.cover ./internal/sim
	@total=$$($(GO) tool cover -func=/tmp/sim.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/sim coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 90.0) ? 0 : 1 }' || \
		{ echo "internal/sim coverage $$total% below the 90% gate"; exit 1; }

# Quick benchmark smoke: the disabled-registry hot path must stay
# allocation-free (same for the disabled-tracer autopsy path), the
# exposition writer must run, and the headline simulation benchmarks
# must hold their allocs/op within 10% of the checked-in
# bench_baseline.json. Keeps `make check` honest without the full bench
# sweep.
smoke-bench:
	$(GO) test ./internal/metrics -run=NONE -bench='DisabledHotPath|EnabledHotPath|SnapshotWrite' -benchmem -benchtime=100x
	$(GO) test . -run=NONE -bench='^BenchmarkFig6a$$|^BenchmarkPoolQuery$$' -benchmem -benchtime=1x 2>&1 \
		| tee /tmp/smoke-bench.out
	$(GO) test ./internal/attrib -run=NONE -bench='^BenchmarkAttribDisabledPath$$' -benchmem -benchtime=100x 2>&1 \
		| tee -a /tmp/smoke-bench.out
	$(GO) run ./cmd/benchjson -gate bench_baseline.json -tolerance 10 < /tmp/smoke-bench.out

# Micro-benchmark time gate. The archived -benchtime=1x diffs once
# flagged these three kernels as regressed (+80%/+94%/+20%); re-measured
# at stable iteration counts the deltas vanished — single-iteration
# timings are startup noise, not signal. ns/op is only gated here, where
# -benchtime is pinned and per-benchmark tolerances in
# bench_micro_baseline.json absorb scheduler jitter.
micro-bench:
	$(GO) test . -run=NONE -benchmem -benchtime=2000000x \
		-bench='^BenchmarkTransmitTracerDisabled$$|^BenchmarkSimulationFacade$$|^BenchmarkTheorem31InsertCell$$|^BenchmarkRouteToNodeWarm$$|^BenchmarkRouteToNodeCold$$|^BenchmarkSplitterFor$$' 2>&1 \
		| tee /tmp/micro-bench.out
	$(GO) test ./internal/sim -run=NONE -benchmem -benchtime=2000000x \
		-bench='^BenchmarkSchedulerChurn$$|^BenchmarkSchedulerSameTickBurst$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) run ./cmd/benchjson -gate bench_micro_baseline.json -tolerance 10 < /tmp/micro-bench.out

# Sustained-load smoke: the seeded quick poolload sweeps must reproduce
# their golden throughput-vs-latency curves exactly, and the load
# harness's own tests (admission hysteresis, station FIFO, knee
# property) must pass.
loadtest:
	$(GO) test -count=1 ./cmd/poolload ./internal/load

check: build vet race race-parallel fuzz chaos conformance cover-ght cover-metrics cover-antientropy cover-node cover-trace cover-attrib cover-sim smoke-bench micro-bench loadtest

# Full benchmark sweep, archived as machine-readable JSON
# (BENCH_<date>.json) via cmd/benchjson for cross-commit diffing, with
# the root package's CPU and heap pprof profiles archived alongside
# (<archive>.cpu.pprof / <archive>.heap.pprof) so a regression flagged
# in the JSON diff can be profiled without re-running the sweep. A
# same-day re-run gets a numeric suffix instead of clobbering the
# earlier archive.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x \
		-cpuprofile=/tmp/bench.cpu.pprof -memprofile=/tmp/bench.heap.pprof . 2>&1 \
		| tee /tmp/bench.out
	$(GO) test -bench=. -benchmem -benchtime=1x ./internal/metrics 2>&1 \
		| tee -a /tmp/bench.out
	@out=BENCH_$$(date +%F).json; n=2; \
	while [ -e "$$out" ]; do out=BENCH_$$(date +%F)_$$n.json; n=$$((n+1)); done; \
	$(GO) run ./cmd/benchjson -o "$$out" < /tmp/bench.out; \
	cp /tmp/bench.cpu.pprof "$${out%.json}.cpu.pprof"; \
	cp /tmp/bench.heap.pprof "$${out%.json}.heap.pprof"; \
	echo "wrote $$out $${out%.json}.cpu.pprof $${out%.json}.heap.pprof"

# Benchstat-style delta between the two newest benchmark archives.
bench-compare:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need at least two BENCH_*.json archives"; exit 1; fi; \
	$(GO) run ./cmd/benchjson -compare "$$1" "$$2"

# The repository benchmark (bench/, its own module, declared in
# BENCHMARK.json): its tests, then every workload untraced and traced,
# twice, with the modelled metrics of the two sets compared bit for bit.
# Takes minutes, so it is not part of `check`; run it before and after
# any change that claims or risks a speed difference.
bench-e2e:
	$(GO) test -C bench -short ./...
	$(GO) run -C bench . -all -repeat 2 -check

# Regenerate golden files after an intentional behaviour change.
golden:
	$(GO) test ./cmd/poolsim -run Golden -update
	$(GO) test ./cmd/pooltrace -run Golden -update
	$(GO) test ./cmd/poolmon -run Golden -update
	$(GO) test ./cmd/poolload -run Golden -update
