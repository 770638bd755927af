// Command bench is the repository's benchmark: six seeded workloads
// driven through the public functions of internal/* and the poolsim
// binary, every answer checked against a brute-force oracle. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
// Usage (from the repo root):
//
//	go run -C bench . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run -C bench . -all [-seed n] [-repeat 2 -check] [-out file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// result is the last line of standard output: what the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 42, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 8, "measuring time of the run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	traceFile := fs.String("tracefile", "", "with -trace 1: write the spans here as Chrome trace-event JSON")
	scale := fs.Float64("scale", 1, "shrink the pinned operation counts (tests use 0.01)")
	all := fs.Bool("all", false, "run every workload, untraced and traced, one process each")
	repeat := fs.Int("repeat", 1, "with -all: number of full sets")
	check := fs.Bool("check", false, "with -all -repeat 2: fail if the sets disagree beyond the bounds")
	outFile := fs.String("out", "", "with -all: also write the sets as JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One driver goroutine; the second CPU is for the collector.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *all {
		return runAll(out, *seed, *seconds, *repeat, *check, *outFile)
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q; choose from %s", *name, workloadNames())
	}
	if *seconds <= 0 || *scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	defs, m, r, sp, err := measure(w, *seed, *scale, *seconds, *traced != 0)
	if err != nil {
		return err
	}
	sp.writeSelfTable(out)
	if sp != nil && *traceFile != "" {
		if err := writeTraceFile(*traceFile, sp); err != nil {
			return err
		}
	}
	res := report(out, defs, m, r)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measure runs one workload. Tracing off, it yields the end-to-end
// metrics. Traced, it spends half the time on an untraced pass and
// half on a traced pass over the same inputs, and yields the
// per-layer metrics; the returned run carries both passes' failures.
func measure(w *workloadDef, seed int64, scale, seconds float64, traced bool) ([]metricDef, values, *run, *spans, error) {
	if !traced {
		r, err := execute(w, seed, scale, seconds, nil)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return endToEndDefs, endToEnd(w, r), r, nil, nil
	}
	u, err := execute(w, seed, scale, seconds/2, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sp := newSpans()
	t, err := execute(w, seed, scale, seconds/2, sp)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m := values{}
	w.layers(u, t, m)
	t.attempted += u.attempted
	t.failed += u.failed
	return perLayerDefs, m, t, sp, t.err
}

// report prints the metrics by name with their units and builds the
// result line. Every metric of defs is present: a layer metric reads 0
// on a workload that does not exercise the layer.
func report(out io.Writer, defs []metricDef, m values, r *run) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := m[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "%-36s %16.6g %-8s %s\n", d.Name, v, d.Unit, d.Kind)
	}
	var extra []string
	for name := range m {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		panic(fmt.Sprintf("bench: metrics missing from spec.go: %v", extra))
	}
	return res
}

func writeTraceFile(path string, sp *spans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
