package experiment

import (
	"strconv"
	"strings"
	"testing"

	"pooldcs/internal/rng"
	"pooldcs/internal/workload"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := Default()
	if cfg.Dims != 3 || cfg.EventsPerNode != 3 || cfg.PartialSize != 900 {
		t.Errorf("default config diverges from §5.1: %+v", cfg)
	}
	want := []int{300, 600, 900, 1200}
	if len(cfg.NetworkSizes) != len(want) {
		t.Fatalf("network sizes = %v", cfg.NetworkSizes)
	}
	for i, n := range want {
		if cfg.NetworkSizes[i] != n {
			t.Fatalf("network sizes = %v", cfg.NetworkSizes)
		}
	}
}

func TestEnvInsertAndQueryConsistency(t *testing.T) {
	src := rng.New(100)
	env, _, _, err := NewEnv(300, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	events, err := env.Populate(3, workload.NewUniformEvents(src.Fork("events"), 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 900 {
		t.Fatalf("generated %d events, want 900", len(events))
	}

	qgen := workload.NewQueries(src.Fork("queries"), 3)
	population := exactMatches(qgen, 15, workload.ExponentialSizes)
	for m := 1; m <= 2; m++ {
		partial, err := partialMatches(qgen, 10, m)
		if err != nil {
			t.Fatal(err)
		}
		population = append(population, partial...)
	}
	queries := env.Place(src.Fork("sinks"), population)

	// Cost verifies that Pool and DIM return identical result sets; any
	// divergence fails here, at every worker count.
	for _, workers := range []int{1, 4} {
		costs, err := env.cost(Config{Parallel: workers}.parallel(), queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range costs {
			if c.PerQuery() <= 0 || c.Queries != len(queries) {
				t.Errorf("workers=%d: %s cost %+v", workers, env.Arms[i].Name, c)
			}
		}
		if costs[0].Matches != costs[1].Matches {
			t.Errorf("workers=%d: pool matched %d events, dim %d", workers, costs[0].Matches, costs[1].Matches)
		}
	}

	// A third arm that has stored nothing must trip the cross-check.
	if _, err := env.AddDIM("empty", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Cost(queries); err == nil || !strings.Contains(err.Error(), "result sets differ") {
		t.Errorf("diverging result sets passed the cross-check: %v", err)
	}
}

func parseRows(t *testing.T, res *Result) [][]string {
	t.Helper()
	var rows [][]string
	for _, r := range res.Table.Rows {
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		t.Fatalf("%s produced no rows", res.ID)
	}
	return rows
}

// otherDims re-runs a table whose query spans every attribute at the
// dimensionalities around the paper's k=3, on a small deployment: the span
// must be built for the deployment's k.
func otherDims(t *testing.T, cfg Config, run func(Config) (*Result, error)) {
	t.Helper()
	cfg.PartialSize = 300
	for _, k := range []int{2, 4} {
		cfg.Dims = k
		if _, err := run(cfg); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a number", s)
	}
	return v
}

func TestFig6Quick(t *testing.T) {
	cfg := Quick()
	res, err := Fig6(cfg, workload.ExponentialSizes)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig6b" {
		t.Errorf("ID = %q", res.ID)
	}
	rows := parseRows(t, res)
	if len(rows) != len(cfg.NetworkSizes) {
		t.Fatalf("%d rows, want %d", len(rows), len(cfg.NetworkSizes))
	}
	// The paper's headline is about scaling: DIM's cost grows with the
	// network while Pool's stays nearly flat, so Pool wins at scale even
	// where small networks start near a crossover (Figure 6(b) shows the
	// two close together at 300 nodes).
	last := rows[len(rows)-1]
	dimLast, poolLast := cellFloat(t, last[1]), cellFloat(t, last[2])
	if poolLast >= dimLast {
		t.Errorf("largest network: pool %v not below dim %v", poolLast, dimLast)
	}
	dimGrowth := dimLast - cellFloat(t, rows[0][1])
	poolGrowth := poolLast - cellFloat(t, rows[0][2])
	if poolGrowth >= dimGrowth {
		t.Errorf("pool growth %v not below dim growth %v", poolGrowth, dimGrowth)
	}
}

func TestFig7aQuick(t *testing.T) {
	cfg := Quick()
	res, err := Fig7a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 || rows[0][0] != "1-Partial" || rows[1][0] != "2-Partial" {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		dim, pool := cellFloat(t, r[1]), cellFloat(t, r[2])
		if pool >= dim {
			t.Errorf("%s: pool %v not below dim %v", r[0], pool, dim)
		}
	}
	// More unspecified dimensions cost more for both systems.
	if cellFloat(t, rows[1][1]) <= cellFloat(t, rows[0][1]) {
		t.Errorf("DIM 2-partial not above 1-partial: %v", rows)
	}
}

func TestFig7bQuick(t *testing.T) {
	cfg := Quick()
	res, err := Fig7b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// The paper's Figure 7(b) mechanism: DIM must visit the most zones
	// when the first dimension is unspecified (no pruning at the top of
	// the k-d tree) and the fewest at the last dimension.
	zones1 := cellFloat(t, rows[0][3])
	zones3 := cellFloat(t, rows[2][3])
	if zones1 <= zones3 {
		t.Errorf("DIM 1@1 zones %v not above 1@3 zones %v", zones1, zones3)
	}
	for _, r := range rows {
		if pool := cellFloat(t, r[2]); pool >= cellFloat(t, r[1]) {
			t.Errorf("%s: pool cost not below dim", r[0])
		}
		// Pool's pruning is insensitive to which dimension is wild: the
		// visited cell count must stay far below DIM's zone count.
		if cells := cellFloat(t, r[4]); cells >= cellFloat(t, r[3]) {
			t.Errorf("%s: pool visits %v cells, dim %v zones", r[0], cells, cellFloat(t, r[3]))
		}
	}
}

func TestInsertCostQuick(t *testing.T) {
	cfg := Quick()
	res, err := InsertCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	for _, r := range rows {
		dim, pool := cellFloat(t, r[1]), cellFloat(t, r[2])
		if dim <= 0 || pool <= 0 {
			t.Errorf("zero insert cost: %v", r)
		}
		// §5.2: the insertion costs are conceptually the same; allow a
		// generous factor.
		ratio := pool / dim
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("insert costs diverge: dim %v pool %v", dim, pool)
		}
	}
}

func TestHotspotQuick(t *testing.T) {
	cfg := Quick()
	res, err := Hotspot(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	dimMax := cellFloat(t, rows[0][1])
	poolMax := cellFloat(t, rows[1][1])
	sharedMax := cellFloat(t, rows[2][1])
	if sharedMax >= poolMax {
		t.Errorf("sharing did not lower the peak: pool %v shared %v", poolMax, sharedMax)
	}
	if dimMax <= 0 || poolMax <= 0 {
		t.Error("zero hotspot loads")
	}
	extra := cellFloat(t, rows[2][4])
	if extra <= 0 {
		t.Error("sharing reported no extra messages")
	}
}

func TestPoolSizeQuick(t *testing.T) {
	cfg := Quick()
	res, err := PoolSize(cfg, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Larger pools spread storage over more index nodes.
	if cellFloat(t, rows[1][1]) <= cellFloat(t, rows[0][1]) {
		t.Errorf("index nodes did not grow with pool side: %v", rows)
	}
}

func TestPointQueryQuick(t *testing.T) {
	cfg := Quick()
	res, err := PointQuery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	names := []string{"GHT", "DIM", "Pool"}
	for i, r := range rows {
		if r[0] != names[i] {
			t.Errorf("row %d = %v", i, r)
		}
		if cellFloat(t, r[2]) <= 0 {
			t.Errorf("%s zero point query cost", r[0])
		}
	}
}

func TestAggregatesQuick(t *testing.T) {
	cfg := Quick()
	res, err := Aggregates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	fullBytes := cellFloat(t, rows[0][2])
	for _, r := range rows[1:] {
		if aggBytes := cellFloat(t, r[2]); aggBytes >= fullBytes {
			t.Errorf("%s reply bytes %v not below full query %v", r[0], aggBytes, fullBytes)
		}
	}
	if !strings.Contains(rows[0][3], "events") {
		t.Errorf("SELECT * row = %v", rows[0])
	}
	otherDims(t, cfg, func(cfg Config) (*Result, error) { return Aggregates(cfg) })
}

func TestResultString(t *testing.T) {
	cfg := Quick()
	cfg.NetworkSizes = []int{300}
	cfg.Queries = 5
	res, err := Fig6(cfg, workload.UniformSizes)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "DIM") || !strings.Contains(out, "Pool") || !strings.Contains(out, "300") {
		t.Errorf("rendered result missing columns:\n%s", out)
	}
}

func TestEnergyQuick(t *testing.T) {
	cfg := Quick()
	res, err := Energy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if cellFloat(t, r[1]) <= 0 || cellFloat(t, r[2]) <= 0 {
			t.Errorf("%s: non-positive energy: %v", r[0], r)
		}
		gini := cellFloat(t, r[3])
		if gini < 0 || gini > 1 {
			t.Errorf("%s: Gini %v out of range", r[0], gini)
		}
	}
}

func TestFragmentationQuick(t *testing.T) {
	cfg := Quick()
	res, err := Fragmentation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	full, agg := cellFloat(t, rows[0][1]), cellFloat(t, rows[1][1])
	if agg >= full {
		t.Errorf("aggregation frames %v not below full query %v under MTU", agg, full)
	}
	if agg*2 > full {
		t.Errorf("fragmentation effect too weak: %v vs %v", agg, full)
	}
	otherDims(t, cfg, func(cfg Config) (*Result, error) { return Fragmentation(cfg) })
}

func TestDisseminationQuick(t *testing.T) {
	cfg := Quick()
	res, err := Dissemination(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		chain, split, pool := cellFloat(t, r[1]), cellFloat(t, r[2]), cellFloat(t, r[3])
		// The headline conclusion must hold under both DIM forwarding
		// models.
		if pool >= chain || pool >= split {
			t.Errorf("%s: pool %v not below both DIM models (%v, %v)", r[0], pool, chain, split)
		}
	}
}

func TestResilienceQuick(t *testing.T) {
	cfg := Quick()
	res, err := Resilience(cfg, []int{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		plain, repl := cellFloat(t, r[1]), cellFloat(t, r[2])
		if repl < plain {
			t.Errorf("failed %s%%: replication recall %v below plain %v", r[0], repl, plain)
		}
		if repl < 0.9 {
			t.Errorf("failed %s%%: replicated recall %v too low", r[0], repl)
		}
		if plain > 0.99 {
			t.Errorf("failed %s%%: plain recall %v suspiciously unaffected", r[0], plain)
		}
	}
	// More failures must not increase plain recall materially.
	if cellFloat(t, rows[1][1]) > cellFloat(t, rows[0][1])+0.02 {
		t.Errorf("plain recall rose with more failures: %v", rows)
	}
	otherDims(t, cfg, func(cfg Config) (*Result, error) { return Resilience(cfg, []int{10}) })
	cfg.Backend, cfg.Repair = "node", true
	otherDims(t, cfg, func(cfg Config) (*Result, error) { return Resilience(cfg, []int{10}) })
}

// TestResilienceNodeCompleteMeansRecalled holds every row of the actor
// backend's resilience sweep, mirrored or not, to the completeness
// contract: a full-range answer reported complete returns every event.
func TestResilienceNodeCompleteMeansRecalled(t *testing.T) {
	for _, repair := range []bool{true, false} {
		cfg := Quick()
		cfg.Backend, cfg.Repair = "node", repair
		res, err := Resilience(cfg, []int{5, 10, 20, 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range parseRows(t, res) {
			if recall, compl := cellFloat(t, r[1]), cellFloat(t, r[2]); compl == 1 && recall != 1 {
				t.Errorf("repair=%v, failed %s%%: complete answer with recall %v", repair, r[0], recall)
			}
		}
	}
}

func TestDimSweepQuick(t *testing.T) {
	cfg := Quick()
	res, err := DimSweep(cfg, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		for col := 1; col <= 4; col++ {
			if cellFloat(t, r[col]) <= 0 {
				t.Errorf("k=%s col %d non-positive: %v", r[0], col, r)
			}
		}
		// Partial-match queries are costlier than exact for both systems
		// at low k (the paper's premise).
		if cellFloat(t, r[3]) <= cellFloat(t, r[1]) {
			t.Errorf("k=%s: DIM partial not above exact: %v", r[0], r)
		}
		// Pool wins the partial-match case at the paper's dimensionalities.
		if cellFloat(t, r[4]) >= cellFloat(t, r[3]) {
			t.Errorf("k=%s: pool partial not below DIM partial: %v", r[0], r)
		}
	}
}

func TestVarianceQuick(t *testing.T) {
	cfg := Quick()
	cfg.NetworkSizes = []int{300, 600}
	res, err := Variance(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		dimMean, dimCI := cellFloat(t, r[1]), cellFloat(t, r[2])
		poolMean, poolCI := cellFloat(t, r[3]), cellFloat(t, r[4])
		if dimMean <= 0 || poolMean <= 0 {
			t.Errorf("non-positive mean: %v", r)
		}
		if dimCI < 0 || poolCI < 0 {
			t.Errorf("negative CI: %v", r)
		}
		// CIs should be a fraction of the means, not dwarf them.
		if dimCI > dimMean || poolCI > poolMean {
			t.Errorf("CI exceeds mean: %v", r)
		}
	}
	if _, err := Variance(cfg, 1); err == nil {
		t.Error("single trial accepted")
	}
}

func TestPlacementQuick(t *testing.T) {
	cfg := Quick()
	res, err := Placement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 || rows[0][0] != "uniform" || rows[1][0] != "clustered" {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		for col := 1; col <= 4; col++ {
			if cellFloat(t, r[col]) <= 0 {
				t.Errorf("%s col %d non-positive: %v", r[0], col, r)
			}
		}
	}
}

func TestEventLoadQuick(t *testing.T) {
	cfg := Quick()
	res, err := EventLoad(cfg, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Reply traffic grows with the stored population for both systems;
	// dissemination stays roughly flat.
	dimReply1, dimReply4 := cellFloat(t, rows[0][2]), cellFloat(t, rows[1][2])
	if dimReply4 <= dimReply1 {
		t.Errorf("DIM reply did not grow with load: %v vs %v", dimReply1, dimReply4)
	}
	poolReply1, poolReply4 := cellFloat(t, rows[0][4]), cellFloat(t, rows[1][4])
	if poolReply4 <= poolReply1 {
		t.Errorf("Pool reply did not grow with load: %v vs %v", poolReply1, poolReply4)
	}
	dimQ1, dimQ4 := cellFloat(t, rows[0][1]), cellFloat(t, rows[1][1])
	if dimQ4 > dimQ1*1.5 {
		t.Errorf("DIM dissemination not flat: %v vs %v", dimQ1, dimQ4)
	}
}

func TestLatencyQuick(t *testing.T) {
	cfg := Quick()
	res, err := Latency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		dimMean, poolMean := cellFloat(t, r[1]), cellFloat(t, r[3])
		dimP95, poolP95 := cellFloat(t, r[2]), cellFloat(t, r[4])
		if dimMean <= 0 || poolMean <= 0 {
			t.Errorf("%s: non-positive latency: %v", r[0], r)
		}
		if dimP95 < dimMean || poolP95 < poolMean {
			t.Errorf("%s: p95 below mean: %v", r[0], r)
		}
		// Pool's parallel splitter tree must respond faster than DIM's
		// sequential chain.
		if poolMean >= dimMean {
			t.Errorf("%s: pool latency %v not below dim %v", r[0], poolMean, dimMean)
		}
	}
}

func TestAsyncLatencyQuick(t *testing.T) {
	cfg := Quick()
	res, err := AsyncLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		mean, p50, p95, max := cellFloat(t, r[1]), cellFloat(t, r[2]), cellFloat(t, r[3]), cellFloat(t, r[4])
		if mean <= 0 {
			t.Errorf("%s: non-positive latency", r[0])
		}
		if p50 > p95 || p95 > max {
			t.Errorf("%s: percentiles out of order: %v", r[0], r)
		}
	}
	// Vaguer queries take longer: more cells per splitter gather.
	if cellFloat(t, rows[2][1]) <= cellFloat(t, rows[0][1]) {
		t.Errorf("2-partial latency not above exact: %v", rows)
	}
}

func TestLossyQuick(t *testing.T) {
	cfg := Quick()
	res, err := Lossy(cfg, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, res)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Loss inflates both systems' frame counts by roughly 1/(1−p).
	dimInfl := cellFloat(t, rows[1][3])
	poolInfl := cellFloat(t, rows[1][4])
	want := 1 / (1 - 0.2)
	for _, infl := range []float64{dimInfl, poolInfl} {
		if infl < want*0.85 || infl > want*1.25 {
			t.Errorf("inflation %v far from expected %v", infl, want)
		}
	}
	// Pool stays cheaper under loss.
	if cellFloat(t, rows[1][2]) >= cellFloat(t, rows[1][1]) {
		t.Errorf("pool not below dim under loss: %v", rows[1])
	}
}
