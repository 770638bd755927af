# Build and verification targets. `make check` is the tier-1 gate:
# everything must build, vet clean, and pass the test suite with the race
# detector on.

GO ?= go

.PHONY: build test vet loc docs bench-build bench-oracle race race-parallel fuzz chaos conformance micro-bench loadtest check bench bench-compare bench-e2e bench-pair golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet, then gofmt: any Go file gofmt would rewrite (bench/ included,
# the bench-pair build tree not) fails the target. Then the one
# deployment constructor: a non-test Go file under internal/ or cmd/
# outside internal/experiment that generates a field or builds a router
# or a radio fails it too (examples/ teach those building blocks, and
# bench/ is a module of its own). Last the one storage-system surface: a
# non-test Go file under internal/ or cmd/ outside internal/dcs that
# declares an interface method QueryWithReport, FailNode or StorageLoad
# fails it, so dcs.System stays declared once.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '\b(field\.Generate(Clustered)?|gpsr\.New|network\.New)\(' \
		$$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/experiment/*')); \
	if [ -n "$$out" ]; then echo "deployment built outside experiment.Deploy:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '^[[:space:]]+(QueryWithReport|FailNode|StorageLoad)\(|interface *\{[^}]*\b(QueryWithReport|FailNode|StorageLoad)\(' \
		$$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/dcs/*')); \
	if [ -n "$$out" ]; then echo "storage-system surface declared outside dcs.System:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# Non-test Go lines per internal/* and cmd/* package, then the total outside
# bench/ (its own module) and the bench-pair build tree, then the lines of
# the three prose documents: the line counts ROADMAP reports. Prints
# only; nothing is gated.
loc:
	@for d in internal/* cmd/*; do \
		printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-24s %6d\n' total $$(find . \( -path ./bench -o -path ./.bench_build \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
	@for f in DESIGN.md README.md EXPERIMENTS.md; do printf '%-24s %6d\n' $$f $$(wc -l < $$f); done

# A ratchet toward ROADMAP's doc budget (DESIGN.md 1000 lines, README.md
# 500): each file fails the target past the line count of its row. Lower
# a row whenever a change shortens its file; never raise one.
DOC_RATCHET := DESIGN.md:1626 README.md:871
docs:
	@fail=0; for row in $(DOC_RATCHET); do \
		f=$${row%%:*}; max=$${row##*:}; n=$$(wc -l < $$f); \
		if [ $$n -gt $$max ]; then echo "$$f: $$n lines, past its $$max-line ratchet"; fail=1; fi; \
	done; exit $$fail

# The parallel experiment runner's determinism contract, exercised with
# real contention: 8 scheduler threads regardless of host core count.
# The load harness rides along — its saturation sweep fans out over the
# same worker pool, and the poolload goldens must stay byte-identical
# under the race detector. The forEach workers share one gpsr.Router, so
# its concurrent-readers contract (lock-free greedy memo) is raced here
# too. poolsim's all-tables run overlaps every table on one shared pool
# and must still print the per-table goldens.
race-parallel:
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/experiment \
		-run 'TestParallelMatchesSequential|TestForEachOrderAndErrors|TestSharedPoolNestedFanOut|TestRunTablesStopsAtEmitError|TestSaturationParallelInvariance'
	GOMAXPROCS=8 $(GO) test -race -count=1 ./cmd/poolsim -run TestAllMatchesGoldens
	GOMAXPROCS=8 $(GO) test -race -count=10 ./internal/gpsr -run TestRouterConcurrentReaders
	GOMAXPROCS=8 $(GO) test -race -count=1 ./cmd/poolload -run Golden

# Short fuzz smoke: random fault plans + queries must never panic,
# over-report completeness or leave a stale set summary behind, the
# metrics exposition writer must stay grammar-clean on arbitrary
# registries, the rateless reconciliation codec must never decode to a
# wrong difference and a reconciliation session must do frame for frame
# what its reference does; the router's greedy
# memo must never change a route, its indexed home lookup must never
# leave the perimeter probe's answer, and its Gabriel rows must be the
# reference's on any placement, co-located and border nodes included,
# under any interleaving of exclusions and rebuilds; concurrent actor queries under
# crashes and loss must degrade by the contract and leave every recycled
# record back in its arena; the autopsy must equal its reference on any
# event stream, and packing events into the flight recorder's 64-byte
# records must lose nothing; the row cell scan must return what the
# specification returns on any rows of one k without NaN, any query and
# any interleaving of writes, and no write may change a reply already
# handed out; charging a routed path in one pass must do to the radio,
# hop for hop, what charging it one Transmit at a time does, and so must
# a broadcast and a routed unicast with its ARQ retries; the beacon
# protocol's stamps must keep every table, suspicion and counter of the
# per-edge reference under any plan of faults, loss and depletion; the
# holding layer must pass its own check after any sequence of appends,
# mirror writes, crashes, handovers, restores and re-homes, with one
# segment per unit or several, and a copy that vouches must hold every
# acked event of its unit. go test
# accepts one -fuzz target per invocation, hence the separate runs.
fuzz:
	$(GO) test ./internal/event -run=NONE -fuzz=FuzzRowsMatchReference -fuzztime=10s
	$(GO) test ./internal/chaos -run=NONE -fuzz=FuzzResolveUnderFaults -fuzztime=10s
	$(GO) test ./internal/metrics -run=NONE -fuzz=FuzzExpositionWrite -fuzztime=10s
	$(GO) test ./internal/antientropy -run=NONE -fuzz=FuzzReconcileDecode -fuzztime=10s
	$(GO) test ./internal/antientropy -run=NONE -fuzz=FuzzSessionMatchesReference -fuzztime=10s
	$(GO) test ./internal/node -run=NONE -fuzz=FuzzRepairPackets -fuzztime=10s
	$(GO) test ./internal/node -run=NONE -fuzz=FuzzQueryUnderFaults -fuzztime=10s
	$(GO) test ./internal/attrib -run=NONE -fuzz=FuzzAutopsy -fuzztime=10s
	$(GO) test ./internal/trace -run=NONE -fuzz=FuzzLogRoundTrip -fuzztime=10s
	$(GO) test ./internal/sim -run=NONE -fuzz=FuzzSchedulerOrdering -fuzztime=10s
	$(GO) test ./internal/gpsr -run=NONE -fuzz=FuzzRouteMemo -fuzztime=10s
	$(GO) test ./internal/gpsr -run=NONE -fuzz=FuzzHomeNode -fuzztime=10s
	$(GO) test ./internal/gpsr -run=NONE -fuzz=FuzzPlanarMatchesReference -fuzztime=10s
	$(GO) test ./internal/network -run=NONE -fuzz=FuzzTransmitPath -fuzztime=10s
	$(GO) test ./internal/discovery -run=NONE -fuzz=FuzzBeaconMatchesReference -fuzztime=10s
	$(GO) test ./internal/dcs -run=NONE -fuzz=FuzzUnicastMatchesReference -fuzztime=10s
	$(GO) test ./internal/holding -run=NONE -fuzz=FuzzHoldingMatchesModel -fuzztime=10s

# Race-enabled sweep of the chaos seeds (fault injection, churn
# experiment, pool/dim repair paths).
chaos:
	$(GO) test -race -count=1 ./internal/chaos ./internal/experiment -run 'Churn|Fault|Chaos|Fail|Degrad'

# Cross-system conformance: the systemtest scenario table against every
# System implementation, race detector on.
conformance:
	$(GO) test -run TestConformance -race ./internal/systemtest/...

# Package coverage gates, one `cover-<pkg>` target per row: internal/<pkg>
# must stay at or above its threshold, 80% unless a COVER_MIN_<pkg> row
# says otherwise.
#   ght          fault surface of the baseline storage scheme
#   metrics      the registry feeds every experiment table
#   antientropy  codec and sessions repair every replicated store
#   node         message-driven repair carries the equivalence claims
#   trace        the tolerant analyzer every autopsy rests on
#   attrib       the critical-path sum-to-total invariant
#   pool         the directory both Pool implementations execute
#   dim          the zone walk Pool is measured against, degraded included
#   dcs          the one failure policy all three schemes run under: 90%
#   field        the spatial index every nearest-node rule reads: 90%
#   gpsr         home lookup and memo each claim to equal a probe: 90%
#   holding      one vouching rule decides completeness for all three
#                schemes: 90%
#   sim          a wrong ladder-queue branch silently reorders simulations
#                instead of crashing them, and the property/fuzz suite
#                covers the kernel that deeply anyway: 90%
#   experiment   the one harness all 24 tables run on; what the quick tests
#                miss is error returns of deployments that cannot fail at
#                the paper's sizes: 79%
COVER_PKGS := ght metrics antientropy node trace attrib pool dim dcs field gpsr sim experiment holding
COVER_MIN_experiment := 79
COVER_MIN_dcs := 90
COVER_MIN_field := 90
COVER_MIN_gpsr := 90
COVER_MIN_holding := 90
COVER_MIN_sim := 90
COVER_TARGETS := $(addprefix cover-,$(COVER_PKGS))
.PHONY: $(COVER_TARGETS)

$(COVER_TARGETS): cover-%:
	$(GO) test -coverprofile=/tmp/$*.cover ./internal/$*
	@total=$$($(GO) tool cover -func=/tmp/$*.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	min=$(or $(COVER_MIN_$*),80); \
	echo "internal/$* coverage: $$total%"; \
	awk -v t="$$total" -v m="$$min" 'BEGIN { exit (t >= m) ? 0 : 1 }' || \
		{ echo "internal/$* coverage $$total% below the $$min% gate"; exit 1; }

# The benchmark is a module of its own (bench/), outside `build` and
# `vet`: an internal API change that breaks it must fail here, not in the
# benchmark pipeline.
bench-build:
	$(GO) vet -C bench ./...

# The benchmark's own tests: its five in-process workloads, untraced and
# traced, every answer checked against the oracle (tables_all skips under
# -short). About 6 s, and five of the six workloads run the Pool store.
bench-oracle:
	$(GO) test -C bench -short ./...

# The benchmark gate: every row of bench_micro_baseline.json, allocs/op
# within 10% and ns/op within the row's own tolerance where it has one.
# Keeps `make check` honest without the full bench sweep.
#
# Allocation rows first. The disabled-tracer autopsy path must stay
# allocation-free, and the exposition writer runs over a registry of
# views (metric families read their owners' counters, so there is no
# metrics hot path left to gate). Fig6a's count is its preload and is the
# same at one iteration; so is a deployment's (BenchmarkDeploy: the N=900
# layout, its Gabriel rows and a Pool, a DIM and a GHT arm), gated on
# allocs/op and on B/op within 10% — one heap object per neighbour row,
# planar row or zone-tree node would read thousands. A Pool query's count
# is gated warm, at 2000 iterations — its first query alone sizes the
# reply and path buffers (10 allocations against the 1 of every later
# one), which is start-up cost, not the row's subject.
#
# Then the time rows. The archived -benchtime=1x diffs once flagged
# three of these kernels as regressed (+80%/+94%/+20%); re-measured
# at stable iteration counts the deltas vanished — single-iteration
# timings are startup noise, not signal. ns/op is only gated here, where
# -benchtime is pinned and per-benchmark tolerances in
# bench_micro_baseline.json absorb scheduler jitter. The steady-state
# range query rides along for its allocs/op alone (no ns tolerance in its
# baseline rows): with warm reply buffers a query allocates its result and
# nothing else, and a 20000x run takes two seconds. The actor engine's
# steady 64-query wave is gated on both: its allocs/op is an exact count —
# wrappers, results and per-cell snapshots, every record recycled — and
# its ns/op moves with the allocator and the host, so it carries a 100%
# tolerance (see the cell scan below). The
# flight recorder has a row for each side: recording into a full ring
# (BenchmarkFlightRecorderEmit) is gated at exactly 0 allocs/op and 0 B/op,
# and reading a wrapped 1<<18 ring in place (BenchmarkRingAttribute:
# Events + Analyze + Attribute + RepairWindows) on B/op within 10% — a
# copy of the ring would be 16 MB over — and ns/op within 60%. A steady
# anti-entropy round over a converged replicated Pool
# (BenchmarkAntiEntropyRoundSteady) is gated at exactly 0 allocs/op — one
# allocation per in-sync pair, a pair walk that boxed its copies, would
# read 244 — and ns/op within 60%; pool's TestConvergedRoundAllocatesNothing
# holds tier-1 to the same 0.
# The cell scan (BenchmarkCellScan) is gated at 0 allocs/op for the
# branch-free row kernel, and the benchmark itself fails when the
# kernel runs less than 2x faster than the Query.AppendMatches
# specification timed right after it in the same run (spec/rows). The
# greedy choice of a GPSR memo miss (BenchmarkGreedyNext) is gated the
# same way: 0 allocs/op, and the benchmark fails when the branch-free
# kernel runs less than 1.2x faster than the scalar reference scan
# (ref/kernel). BenchmarkRouteToNodeCold, the miss path around that
# kernel, is gated on allocs/op and B/op only: its ns row had a 100%
# tolerance and so gated nothing, and the ratio now gates its kernel. A
# warm routed unicast (BenchmarkUnicastPath) is gated at 0 allocs/op and
# fails when it runs slower than the hop-by-hop reference interleaved
# with it (ref/path below 1.0), and a warm cached storage leg
# (BenchmarkUnicastLeg) at 0 allocs/op, failing when it runs less than
# 1.5x faster than routing the same legs interleaved with it (route/leg).
# GHT's home lookup (BenchmarkGPSRHomeNode) is gated at 0 allocs/op and
# fails when it runs less than 10x faster than the perimeter probe it
# replaced, timed on the same points in the same run (probe/home): its
# ns rows had failed on host noise alone. A warm splitter lookup
# (BenchmarkSplitterFor) is gated at 0 allocs/op and fails when a cold
# one, swept after a re-election cleared the memo in blocks interleaved
# with the warm calls, costs less than 25x as much (cold/warm): its ns
# row had a 100% tolerance. The beacon exchange under churn
# (BenchmarkBeaconRound) is gated at 0 allocs/op and fails when it runs
# slower than the per-edge reference protocol interleaved with it
# (ref/new below 1.0). One hop on an untraced radio
# (BenchmarkTransmitTracerDisabled, internal/network) is gated at 0
# allocs/op and fails when it runs less than 0.75x as fast as the
# reference hop interleaved with it (ref/kernel): its ns row had a 60%
# tolerance and failed on host noise alone. The
# 100% ns tolerance of BenchmarkActorQuerySteady covers what the same
# code measures on a shared 2-vCPU host from a quiet phase to a loaded
# one: up to +86% over its row.
micro-bench:
	$(GO) test ./internal/metrics -run=NONE -bench='^BenchmarkSnapshotWrite$$' -benchmem -benchtime=100x
	$(GO) test . -run=NONE -bench='^BenchmarkFig6a$$' -benchmem -benchtime=1x 2>&1 \
		| tee /tmp/micro-bench.out
	$(GO) test . -run=NONE -bench='^BenchmarkDeploy$$' -benchmem -benchtime=20x 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -bench='^BenchmarkPoolQuery$$' -benchmem -benchtime=2000x 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test ./internal/attrib -run=NONE -bench='^BenchmarkAttribDisabledPath$$' -benchmem -benchtime=100x 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=2000000x \
		-bench='^BenchmarkPoolInsert$$|^BenchmarkTheorem31InsertCell$$|^BenchmarkRouteToNodeWarm$$|^BenchmarkRouteToNodeCold$$|^BenchmarkSplitterFor$$|^BenchmarkGPSRHomeNode$$|^BenchmarkTransmitTracerEnabled$$|^BenchmarkFlightRecorderEmit$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test ./internal/sim -run=NONE -benchmem -benchtime=2000000x \
		-bench='^BenchmarkSchedulerChurn$$|^BenchmarkSchedulerSameTickBurst$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=200x -bench='^BenchmarkSplitterForCold$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=20000x -bench='^BenchmarkRangeQuerySteady$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=2000x -bench='^BenchmarkActorQuerySteady$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=50x -bench='^BenchmarkRingAttribute$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=5000x -bench='^BenchmarkAntiEntropyRoundSteady$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test . -run=NONE -benchmem -benchtime=200000x -bench='^BenchmarkCellScan$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test ./internal/gpsr -run=NONE -benchmem -benchtime=2000000x -bench='^BenchmarkGreedyNext$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test ./internal/dcs -run=NONE -benchmem -benchtime=200000x -bench='^BenchmarkUnicastPath$$|^BenchmarkUnicastLeg$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test ./internal/discovery -run=NONE -benchmem -benchtime=2000000x -bench='^BenchmarkBeaconRound$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) test ./internal/network -run=NONE -benchmem -benchtime=2000000x -bench='^BenchmarkTransmitTracerDisabled$$' 2>&1 \
		| tee -a /tmp/micro-bench.out
	$(GO) run ./cmd/benchjson -gate bench_micro_baseline.json -tolerance 10 < /tmp/micro-bench.out

# Sustained-load smoke: the seeded quick poolload sweeps must reproduce
# their golden throughput-vs-latency curves exactly, and the load
# harness's own tests (admission hysteresis, station FIFO, knee
# property) must pass.
loadtest:
	$(GO) test -count=1 ./cmd/poolload ./internal/load

check: build vet docs bench-build bench-oracle race race-parallel fuzz chaos conformance $(COVER_TARGETS) micro-bench loadtest

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
bench-e2e: bench-oracle
	$(GO) run -C bench . -all -repeat 2 -check

# Before/after measurement of one benchmark workload by alternating
# pairs: the BASE revision's benchmark, built from a `git worktree` under
# .bench_build/, against the working tree's. Pair i runs both builds at
# seed SEEDS[i mod len] with the order flipped every pair, so a slow phase
# of the host hits both sides alike; run length is the benchmark's own.
# `benchjson -pairs` then prints each end-to-end metric's quartiles per
# side, the pairs the working tree won and whether that is a claimable
# gain. Each build runs inside its own checkout because the benchmark
# builds poolsim from the checkout it is started in.
#   make bench-pair BASE=HEAD~1 W=sync_range PAIRS=10 SEEDS="42 43 44"
BASE ?= HEAD
W ?= sync_range
PAIRS ?= 10
SEEDS ?= 42 43 44
bench-pair:
	@mkdir -p .bench_build
	@git worktree remove --force .bench_build/base 2>/dev/null || true
	git worktree add --detach .bench_build/base $(BASE)
	$(GO) build -C .bench_build/base/bench -o $(CURDIR)/.bench_build/bench_base .
	$(GO) build -C bench -o $(CURDIR)/.bench_build/bench_new .
	@set -e; : > .bench_build/pairs.out; set -- $(SEEDS); i=0; \
	run() { \
		(cd $$2 && $(CURDIR)/.bench_build/bench_$$1 --workload $(W) --seed $$seed --trace 0) \
			| tail -n 1 | sed "s/^/$$1	/" | tee -a .bench_build/pairs.out; \
	}; \
	while [ $$i -lt $(PAIRS) ]; do \
		eval "seed=\$${$$((i % $$# + 1))}"; \
		echo "pair $$((i + 1))/$(PAIRS) seed $$seed"; \
		if [ $$((i % 2)) -eq 0 ]; then run base .bench_build/base; run new .; \
		else run new .; run base .bench_build/base; fi; \
		i=$$((i + 1)); \
	done
	@git worktree remove --force .bench_build/base
	@$(GO) run ./cmd/benchjson -pairs BENCHMARK.json < .bench_build/pairs.out

# Regenerate golden files after an intentional behaviour change.
golden:
	$(GO) test ./cmd/poolsim -run Golden -update
	$(GO) test ./cmd/pooltrace -run Golden -update
	$(GO) test ./cmd/poolmon -run Golden -update
	$(GO) test ./cmd/poolload -run Golden -update
