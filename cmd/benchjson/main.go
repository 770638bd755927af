// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so benchmark runs can be archived and
// diffed across commits (see `make bench`, which writes
// BENCH_<date>.json).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson [-o report.json]
//	benchjson -compare old.json new.json
//	go test -bench=... -benchmem | benchjson -gate baseline.json [-tolerance 10]
//	benchjson -pairs BENCHMARK.json < tagged-result-lines
//
// Reads the benchmark stream on stdin. Context lines (goos, goarch,
// pkg, cpu) are folded into the enclosing benchmarks; custom
// ReportMetric units (e.g. "dim-msgs/query") land in the metrics map.
//
// -compare prints a benchstat-style delta table (ns/op, B/op,
// allocs/op) between two archived reports. -gate parses a fresh bench
// stream from stdin and fails when any benchmark's allocs/op regresses
// more than -tolerance percent over the baseline report, its B/op
// regresses past the "bytes_tolerance_pct" of its baseline entry (entries
// without one are not gated on bytes), or its ns/op regresses past its
// time tolerance. Time gating is opt-in — wall time
// is only meaningful at stable iteration counts (never -benchtime=1x) —
// and the tolerance resolves per benchmark: a "ns_tolerance_pct" field
// in the baseline entry wins, else the -ns-tolerance flag, else 0
// (disabled).
//
// -pairs summarises alternating runs of the repository benchmark
// (bench/) on two builds, as `make bench-pair` produces them: per
// end-to-end metric of BENCHMARK.json, each side's quartiles, the median
// change, the pairs the new build won, and whether that amounts to a
// claimable gain (pairs.go).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// NsTolerancePct, set by hand in a baseline report, overrides the
	// -ns-tolerance flag for this benchmark during -gate. Benchmarks with
	// inherently noisy timing carry a wide tolerance (or none) while tight
	// nanosecond-scale kernels gate strictly.
	NsTolerancePct *float64 `json:"ns_tolerance_pct,omitempty"`
	// BytesTolerancePct, set by hand in a baseline report, opts this
	// benchmark's B/op into -gate: the current value may exceed the
	// baseline's bytes_per_op by at most this percentage (so a baseline
	// of 0 B/op gates exactly).
	BytesTolerancePct *float64 `json:"bytes_tolerance_pct,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the JSON report to this file instead of stdout")
	date := fs.String("date", time.Now().Format("2006-01-02"), "date stamped into the report")
	compare := fs.Bool("compare", false, "compare two archived reports: benchjson -compare old.json new.json")
	gate := fs.String("gate", "", "baseline report; fail when stdin's allocs/op regress past -tolerance")
	tolerance := fs.Float64("tolerance", 10, "allowed allocs/op regression in percent for -gate")
	nsTolerance := fs.Float64("ns-tolerance", 0, "allowed ns/op regression in percent for -gate (0 disables; per-benchmark ns_tolerance_pct in the baseline overrides)")
	pairs := fs.String("pairs", "", "BENCHMARK.json; summarise stdin's base/new result lines of the repository benchmark pair by pair")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two report files, got %d", fs.NArg())
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *gate != "" {
		return gateReport(in, *gate, *tolerance, *nsTolerance, stdout)
	}
	if *pairs != "" {
		return pairsReport(in, *pairs, stdout)
	}

	rep, err := parse(in)
	if err != nil {
		return err
	}
	rep.Date = *date
	rep.Go = runtime.Version()

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parse consumes a `go test -bench` stream and collects the result
// lines. Unknown lines (PASS, ok, test log output) are skipped.
func parse(in io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	var pkg string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			if b != nil {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, *b)
			}
		}
	}
	return rep, sc.Err()
}

// parseBench parses one result line of the form
//
//	BenchmarkName-8  100  123.4 ns/op  56 B/op  7 allocs/op  8.9 custom/unit
//
// A bare "BenchmarkName" line (the pre-announcement go test prints when
// -v is set) has no fields and is skipped by returning nil.
func parseBench(line string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, nil
	}
	b := &Benchmark{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad iteration count %q", fields[1])
	}
	b.Iterations = iters

	// The rest is (value, unit) pairs.
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return nil, fmt.Errorf("odd value/unit tail %v", rest)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", rest[i])
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// loadReport reads an archived JSON report from disk.
func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// benchKey identifies a benchmark across reports. Pkg is included so
// same-named benchmarks in different packages never collide.
func benchKey(b Benchmark) string { return b.Pkg + "\x00" + b.Name }

// delta renders a benchstat-style percentage change.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "~"
		}
		return "+∞"
	}
	pct := (new - old) / old * 100
	if math.Abs(pct) < 0.005 {
		return "~"
	}
	return fmt.Sprintf("%+.2f%%", pct)
}

// compareReports prints per-unit delta sections (ns/op, B/op,
// allocs/op) for benchmarks present in both reports, in the new
// report's order.
func compareReports(oldPath, newPath string, out io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[benchKey(b)] = b
	}

	sections := []struct {
		unit string
		get  func(Benchmark) (float64, bool)
	}{
		{"ns/op", func(b Benchmark) (float64, bool) { return b.NsPerOp, true }},
		{"B/op", func(b Benchmark) (float64, bool) {
			if b.BytesPerOp == nil {
				return 0, false
			}
			return *b.BytesPerOp, true
		}},
		{"allocs/op", func(b Benchmark) (float64, bool) {
			if b.AllocsPerOp == nil {
				return 0, false
			}
			return *b.AllocsPerOp, true
		}},
	}

	fmt.Fprintf(out, "old: %s (%s)\nnew: %s (%s)\n", oldPath, oldRep.Date, newPath, newRep.Date)
	matched := 0
	for _, sec := range sections {
		var rows [][4]string
		for _, nb := range newRep.Benchmarks {
			ob, ok := oldBy[benchKey(nb)]
			if !ok {
				continue
			}
			ov, ook := sec.get(ob)
			nv, nok := sec.get(nb)
			if !ook || !nok {
				continue
			}
			rows = append(rows, [4]string{
				nb.Name,
				strconv.FormatFloat(ov, 'f', -1, 64),
				strconv.FormatFloat(nv, 'f', -1, 64),
				delta(ov, nv),
			})
		}
		if len(rows) == 0 {
			continue
		}
		matched += len(rows)
		tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "\nname\told %s\tnew %s\tdelta\n", sec.unit, sec.unit)
		for _, row := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", row[0], row[1], row[2], row[3])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if matched == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	return nil
}

// gateReport parses a fresh bench stream and fails when any baseline
// benchmark's allocs/op regressed more than tolerance percent, its B/op
// regressed past the bytes_tolerance_pct its baseline row carries (rows
// without one are not gated on bytes), or its ns/op regressed past that
// benchmark's effective time tolerance (ns_tolerance_pct in the baseline,
// else the global nsTolerance, else disabled). Baseline benchmarks missing from the stream fail too, so
// the gate cannot rot silently when a benchmark is renamed.
func gateReport(in io.Reader, baselinePath string, tolerance, nsTolerance float64, out io.Writer) error {
	base, err := loadReport(baselinePath)
	if err != nil {
		return err
	}
	cur, err := parse(in)
	if err != nil {
		return err
	}
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[benchKey(b)] = b
	}

	var failures []string
	checked := 0
	for _, bb := range base.Benchmarks {
		nsTol := nsTolerance
		if bb.NsTolerancePct != nil {
			nsTol = *bb.NsTolerancePct
		}
		gateNs := nsTol > 0 && bb.NsPerOp > 0
		gateBytes := bb.BytesTolerancePct != nil && bb.BytesPerOp != nil
		if bb.AllocsPerOp == nil && !gateNs && !gateBytes {
			continue
		}
		cb, ok := curBy[benchKey(bb)]
		if !ok || (bb.AllocsPerOp != nil && cb.AllocsPerOp == nil) || (gateBytes && cb.BytesPerOp == nil) {
			failures = append(failures, fmt.Sprintf("%s: missing from current run (or run without -benchmem)", bb.Name))
			continue
		}
		checked++
		if bb.AllocsPerOp != nil {
			limit := *bb.AllocsPerOp * (1 + tolerance/100)
			status := "ok"
			if *cb.AllocsPerOp > limit {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %g allocs/op exceeds baseline %g by more than %g%%",
					bb.Name, *cb.AllocsPerOp, *bb.AllocsPerOp, tolerance))
			}
			fmt.Fprintf(out, "%-40s baseline %10g  current %10g  (%s)  %s allocs/op\n",
				bb.Name, *bb.AllocsPerOp, *cb.AllocsPerOp, delta(*bb.AllocsPerOp, *cb.AllocsPerOp), status)
		}
		if gateBytes {
			limit := *bb.BytesPerOp * (1 + *bb.BytesTolerancePct/100)
			status := "ok"
			if *cb.BytesPerOp > limit {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %g B/op exceeds baseline %g by more than %g%%",
					bb.Name, *cb.BytesPerOp, *bb.BytesPerOp, *bb.BytesTolerancePct))
			}
			fmt.Fprintf(out, "%-40s baseline %10g  current %10g  (%s)  %s B/op (tol %g%%)\n",
				bb.Name, *bb.BytesPerOp, *cb.BytesPerOp, delta(*bb.BytesPerOp, *cb.BytesPerOp), status, *bb.BytesTolerancePct)
		}
		if gateNs {
			limit := bb.NsPerOp * (1 + nsTol/100)
			status := "ok"
			if cb.NsPerOp > limit {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %g ns/op exceeds baseline %g by more than %g%%",
					bb.Name, cb.NsPerOp, bb.NsPerOp, nsTol))
			}
			fmt.Fprintf(out, "%-40s baseline %10g  current %10g  (%s)  %s ns/op (tol %g%%)\n",
				bb.Name, bb.NsPerOp, cb.NsPerOp, delta(bb.NsPerOp, cb.NsPerOp), status, nsTol)
		}
	}
	if checked == 0 && len(failures) == 0 {
		return fmt.Errorf("baseline %s has nothing to gate on (no allocs/op entries, no ns tolerances)", baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
