package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// workloadResult is one workload's two runs: tracing off, then traced.
type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// archive is what -all -out writes: the machine, the settings, and
// every set of runs.
type archive struct {
	GoVersion  string                      `json:"go_version"`
	CPUModel   string                      `json:"cpu_model"`
	NProc      int                         `json:"nproc"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Seed       int64                       `json:"seed"`
	Seconds    float64                     `json:"seconds"`
	Sets       []map[string]workloadResult `json:"sets"`
	// Spread is, per workload and host end-to-end metric, the relative
	// distance between the sets' extremes (with -repeat 2 and more).
	Spread map[string]map[string]float64 `json:"spread,omitempty"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// runSelf runs one workload in a process of its own, so that its peak
// memory is its own, and parses the result line.
func runSelf(w string, seed int64, seconds float64, traced int, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s --trace %d: %w", w, traced, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(echo, "  "+last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s --trace %d: result line: %w", w, traced, err)
	}
	return res, nil
}

// runAll runs every workload, tracing off and traced, repeat times.
func runAll(out io.Writer, seed int64, seconds float64, repeat int, check bool, outFile string) error {
	a := archive{GoVersion: runtime.Version(), CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds}
	fmt.Fprintf(out, "%s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s per run\n",
		a.GoVersion, a.CPUModel, a.NProc, a.GOMAXPROCS, seed, seconds)
	incorrect := 0
	for set := 0; set < repeat; set++ {
		results := make(map[string]workloadResult)
		for _, w := range workloads {
			fmt.Fprintf(out, "== set %d: %s, tracing off\n", set+1, w.name)
			e2e, err := runSelf(w.name, seed, seconds, 0, out)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "== set %d: %s, traced\n", set+1, w.name)
			layers, err := runSelf(w.name, seed, seconds, 1, out)
			if err != nil {
				return err
			}
			if !e2e.Correct || !layers.Correct {
				incorrect++
			}
			results[w.name] = workloadResult{EndToEnd: e2e, PerLayer: layers}
		}
		a.Sets = append(a.Sets, results)
	}
	disagreements := compareSets(out, &a)
	if outFile != "" {
		data, err := json.MarshalIndent(a, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload runs had failed operations", incorrect)
	}
	if check && disagreements > 0 {
		return fmt.Errorf("%d metrics disagree between the sets", disagreements)
	}
	return nil
}

// compareSets prints, per workload, how far the sets are apart on each
// host end-to-end metric, and counts the disagreements: a host
// end-to-end metric further apart than its bound, or a modelled metric
// or program counter that differs at all.
func compareSets(out io.Writer, a *archive) int {
	if len(a.Sets) < 2 {
		return 0
	}
	a.Spread = make(map[string]map[string]float64)
	bad := 0
	for _, w := range workloads {
		a.Spread[w.name] = make(map[string]float64)
		compare := func(defs []metricDef, pick func(workloadResult) result) {
			for _, d := range defs {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, set := range a.Sets {
					v := pick(set[w.name]).Metrics[d.Name].Value
					lo, hi = math.Min(lo, v), math.Max(hi, v)
				}
				switch {
				case d.Kind == "modelled":
					if lo != hi {
						bad++
						fmt.Fprintf(out, "DISAGREE %s %s: modelled, %v vs %v\n", w.name, d.Name, lo, hi)
					}
				case d.Bound > 0:
					spread := 0.0
					if lo > 0 {
						spread = (hi - lo) / lo
					}
					a.Spread[w.name][d.Name] = spread
					verdict := "ok"
					if spread > d.Bound {
						bad++
						verdict = "DISAGREE"
					}
					fmt.Fprintf(out, "%-14s %-22s spread %6.2f%% (bound %4.1f%%) %s\n", w.name, d.Name, spread*100, d.Bound*100, verdict)
				}
			}
		}
		compare(endToEndDefs, func(r workloadResult) result { return r.EndToEnd })
		compare(perLayerDefs, func(r workloadResult) result { return r.PerLayer })
	}
	return bad
}
