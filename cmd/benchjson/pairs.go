package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json that -pairs needs: the
// end-to-end metrics in declaration order, with the direction that counts
// as better.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// benchRun is the result line a `bench --workload` run ends with.
type benchRun struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// quantile returns the p-quantile of sorted by linear interpolation
// between order statistics.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// pairsReport reads alternating benchmark runs of two builds from in and
// prints, per end-to-end metric of the benchmark declared in specPath,
// each side's quartiles and the pairs the new build won. Every input line
// is a side — "base" or "new" — a tab, and the JSON result line of one
// run; the k-th base line and the k-th new line form pair k (`make
// bench-pair` writes them).
//
// The verdict column applies the paired-run rule for claiming a gain: the
// new build wins at least nine tenths of the pairs (ties count for
// neither side) and the medians differ by more than the distance between
// the base's own quartiles.
func pairsReport(in io.Reader, specPath string, out io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.EndToEnd) == 0 {
		return fmt.Errorf("%s declares no end_to_end metrics", specPath)
	}

	sides := map[string][]benchRun{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		side, body, ok := strings.Cut(line, "\t")
		if !ok || (side != "base" && side != "new") {
			return fmt.Errorf("line %d: want \"base\" or \"new\", a tab, and a result line", n)
		}
		var r benchRun
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		sides[side] = append(sides[side], r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	base, cur := sides["base"], sides["new"]
	if len(base) == 0 || len(base) != len(cur) {
		return fmt.Errorf("need as many base runs as new runs and at least one, got %d and %d", len(base), len(cur))
	}

	failed := func(runs []benchRun) (failed, attempted int) {
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return
	}
	bf, ba := failed(base)
	nf, na := failed(cur)
	fmt.Fprintf(out, "%d pairs; failed operations: base %d of %d, new %d of %d\n\n", len(base), bf, ba, nf, na)

	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbase q1\tmedian\tq3\tnew q1\tmedian\tq3\tdelta\twon\tgain")
	for _, m := range spec.EndToEnd {
		bv, nv := make([]float64, len(base)), make([]float64, len(cur))
		won, ties := 0, 0
		for i := range base {
			b, bok := base[i].Metrics[m.Name]
			c, cok := cur[i].Metrics[m.Name]
			if !bok || !cok {
				return fmt.Errorf("pair %d: metric %s missing from a result line", i+1, m.Name)
			}
			bv[i], nv[i] = b.Value, c.Value
			switch {
			case c.Value == b.Value:
				ties++
			case (c.Value < b.Value) == (m.Better != "higher"):
				won++
			}
		}
		sort.Float64s(bv)
		sort.Float64s(nv)
		bq1, bmed, bq3 := quantile(bv, 0.25), quantile(bv, 0.5), quantile(bv, 0.75)
		nq1, nmed, nq3 := quantile(nv, 0.25), quantile(nv, 0.5), quantile(nv, 0.75)
		improved := nmed - bmed
		if m.Better != "higher" {
			improved = -improved
		}
		gain := "no"
		if float64(won) >= 0.9*float64(len(base)) && improved > bq3-bq1 {
			gain = "yes"
		}
		wonCell := fmt.Sprintf("%d/%d", won, len(base))
		if ties > 0 {
			wonCell += fmt.Sprintf(" (%d tied)", ties)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%s\t%s\t%s\n",
			m.Name, m.Unit, bq1, bmed, bq3, nq1, nmed, nq3, delta(bmed, nmed), wonCell, gain)
	}
	return tw.Flush()
}
