package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// testScale shrinks every pinned count so the six workloads run in a
// few seconds.
const testScale = 0.01

// benchmarkJSON is the schema of BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json to the names,
// units, directions and bounds the program prints, and to the limits
// of the driver's contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRule.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program {%s %s}", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}

	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, d := range endToEndDefs {
		name(d.Name)
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !unitRule.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(perLayerDefs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayerDefs))
	}
	if len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		name(d.Name)
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !unitRule.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
	}
}

// TestWorkloadsRepeatExactly runs every workload twice at one seed,
// tracing off and traced: every modelled metric and every program
// counter must be equal to the last bit, every metric the program
// prints must be one spec.go names, and no operation may fail. A
// second seed must give other inputs.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "tables_all" {
				t.Skip("builds and runs poolsim")
			}
			for _, traced := range []bool{false, true} {
				defs, first, r, _, err := measure(w, 7, testScale, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				_, again, _, _, err := measure(w, 7, testScale, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				_, other, _, _, err := measure(w, 8, testScale, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, r.failed, r.attempted)
				}
				known := map[string]bool{}
				differs := false
				for _, d := range defs {
					known[d.Name] = true
					if d.Kind != "modelled" {
						continue
					}
					if first[d.Name] != again[d.Name] {
						t.Errorf("traced=%v: %s is %v, then %v, at one seed", traced, d.Name, first[d.Name], again[d.Name])
					}
					differs = differs || first[d.Name] != other[d.Name]
				}
				if !differs {
					t.Errorf("traced=%v: seeds 7 and 8 gave the same modelled metrics", traced)
				}
				for name := range first {
					if !known[name] {
						t.Errorf("traced=%v: metric %s is not in spec.go", traced, name)
					}
				}
				if !traced && first["pool_msgs_per_query"] <= 0 {
					t.Errorf("pool_msgs_per_query is %v", first["pool_msgs_per_query"])
				}
			}
		})
	}
}
