// Command pooltrace records and analyzes structured simulation traces.
//
// Usage:
//
//	pooltrace record [flags] -o trace.jsonl
//	pooltrace analyze [flags] trace.jsonl
//	pooltrace autopsy [flags] trace.jsonl
//
// record replays a seeded insert+query workload (the poolsim simulation
// model) with tracing enabled and writes the trace as JSONL, one event
// per line. analyze loads a trace and reports per-query span trees,
// hop-count percentiles per operation, per-node load ranking, and the
// traffic breakdown by kind — which matches network.Counters exactly.
// autopsy decomposes each query's wall clock into named phases
// (transmit, arq, queue, service, retry, repair, merge, other), prints
// the blame table — which phase owns the latency mass at p50/p95/p99 —
// and details the worst offenders. The node system records on the actor
// engine's virtual clock, so its traces carry the real durations the
// autopsy needs; pool and dim replay synchronously and decompose to
// zeros.
//
// record flags:
//
//	-system S   pool | dim | node (default pool)
//	-seed N     random seed (default 42)
//	-nodes N    deployment size (default 300)
//	-events N   events per node (default 3)
//	-queries N  queries (default 40)
//	-subs N     standing queries, Pool only (default 0)
//	-fail N     node failures before the queries, pool and node (default 0)
//	-o PATH     output path, "-" for stdout (default "-")
//
// analyze flags:
//
//	-spans N    query span trees to print (default 3)
//	-top N      nodes in the load ranking (default 10)
//
// autopsy flags:
//
//	-worst N    slowest queries to detail (default 3)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"pooldcs/internal/attrib"
	"pooldcs/internal/experiment"
	"pooldcs/internal/texttable"
	"pooldcs/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pooltrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("no command given; choose record, analyze, or autopsy")
	}
	switch args[0] {
	case "record":
		return record(args[1:], out)
	case "analyze":
		return analyze(args[1:], out)
	case "autopsy":
		return autopsy(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q; choose record, analyze, or autopsy", args[0])
	}
}

// record replays a traced workload and writes the JSONL trace.
func record(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pooltrace record", flag.ContinueOnError)
	o := experiment.DefaultTraceOptions()
	fs.StringVar(&o.System, "system", o.System, "traced system: pool, dim, or node")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "random seed")
	fs.IntVar(&o.Nodes, "nodes", o.Nodes, "deployment size")
	fs.IntVar(&o.EventsPerNode, "events", o.EventsPerNode, "events per node")
	fs.IntVar(&o.Queries, "queries", o.Queries, "number of queries")
	fs.IntVar(&o.Subscriptions, "subs", 0, "standing queries (Pool only)")
	fs.IntVar(&o.Failures, "fail", 0, "node failures before the queries (pool and node)")
	path := fs.String("o", "-", `output path ("-" for stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("record takes no positional arguments")
	}

	res, err := experiment.TraceRun(o)
	if err != nil {
		return err
	}
	w := out
	if *path != "-" {
		f, err := os.Create(*path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteJSONL(w, trace.LogOf(res.Events)); err != nil {
		return err
	}
	if *path != "-" {
		fmt.Fprintf(out, "recorded %d events (%d messages, %d query results) to %s\n",
			len(res.Events), res.Counters.Total(), res.Matches, *path)
	}
	return nil
}

// analyze loads a JSONL trace and prints the report.
func analyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pooltrace analyze", flag.ContinueOnError)
	spans := fs.Int("spans", 3, "query span trees to print")
	top := fs.Int("top", 10, "nodes in the load ranking")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze takes exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	a, err := trace.Analyze(trace.LogOf(events))
	if err != nil {
		return err
	}
	return report(out, a, *spans, *top)
}

// autopsy loads a JSONL trace, attributes every query span's wall
// clock to phases, and prints the blame table plus the worst offenders.
func autopsy(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pooltrace autopsy", flag.ContinueOnError)
	worst := fs.Int("worst", 3, "slowest queries to detail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("autopsy takes exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	log := trace.LogOf(events)
	a, err := trace.Analyze(log)
	if err != nil {
		return err
	}
	return autopsyReport(out, log, a, *worst)
}

// autopsyReport renders the attribution: header, blame table, and the
// per-phase decomposition of the slowest queries.
func autopsyReport(out io.Writer, events trace.Log, a *trace.Analysis, worst int) error {
	bds := attrib.Attribute(events, a, attrib.Options{})
	repairs := attrib.RepairWindows(events, a.Horizon)
	fmt.Fprintf(out, "autopsy: %d queries attributed, %d repair windows, horizon %v",
		len(bds), len(repairs), a.Horizon)
	if a.Truncated {
		fmt.Fprint(out, " (trace truncated: flight recorder evicted events)")
	}
	fmt.Fprint(out, "\n\n")
	if len(bds) == 0 {
		fmt.Fprintln(out, "no query spans in trace")
		return nil
	}

	fmt.Fprintln(out, attrib.Blame(bds).String())

	sorted := make([]attrib.Breakdown, len(bds))
	copy(sorted, bds)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Total != sorted[j].Total {
			return sorted[i].Total > sorted[j].Total
		}
		return sorted[i].Span < sorted[j].Span
	})
	if worst > len(sorted) {
		worst = len(sorted)
	}
	if worst <= 0 {
		return nil
	}
	fmt.Fprintf(out, "worst %d queries:\n", worst)
	for i := 0; i < worst; i++ {
		bd := &sorted[i]
		fmt.Fprintf(out, "  span %d %s node=%d %q: total %v [%v, %v]\n",
			bd.Span, bd.Op, bd.Node, bd.Detail, bd.Total, bd.Start, bd.End)
		for _, p := range attrib.Phases() {
			d := bd.Phases[p]
			if d == 0 {
				continue
			}
			fmt.Fprintf(out, "    %-9s %12v %5.1f%%\n", p, d, 100*float64(d)/float64(bd.Total))
		}
		if s := a.ByID[bd.Span]; s != nil {
			if err := s.WriteTree(out); err != nil {
				return err
			}
		}
	}
	return nil
}

// report renders the analysis: traffic by kind, per-operation hop
// percentiles, node load ranking, and the first few query span trees.
func report(out io.Writer, a *trace.Analysis, spans, top int) error {
	fmt.Fprintf(out, "trace: %d events, %d spans, horizon %v\n\n",
		a.Events, len(a.ByID), a.Horizon)

	kinds := texttable.New("Traffic by kind", "kind", "msgs", "bytes", "lost")
	var frames, bytes, lost uint64
	for _, k := range a.Kinds() {
		kt := a.ByKind[k]
		frames += kt.Frames
		bytes += kt.Bytes
		lost += kt.Lost
		kinds.AddRow(k, fmt.Sprint(kt.Frames), fmt.Sprint(kt.Bytes), fmt.Sprint(kt.Lost))
	}
	kinds.AddRow("total", fmt.Sprint(frames), fmt.Sprint(bytes), fmt.Sprint(lost))
	fmt.Fprintln(out, kinds.String())
	if a.BackgroundFrames > 0 {
		fmt.Fprintf(out, "background (unspanned) messages: %d\n\n", a.BackgroundFrames)
	}

	ops := texttable.New("Hops per operation", "op", "count", "mean", "p50", "p95", "p99", "max")
	for _, op := range []trace.Op{trace.OpInsert, trace.OpQuery, trace.OpSubscribe, trace.OpFail} {
		h := a.HopHistogram(op)
		if h.Total() == 0 {
			continue
		}
		ops.AddRow(string(op), fmt.Sprint(h.Total()), texttable.Float(h.Mean(), 1),
			fmt.Sprint(h.Quantile(50)), fmt.Sprint(h.Quantile(95)),
			fmt.Sprint(h.Quantile(99)), fmt.Sprint(h.Max()))
	}
	fmt.Fprintln(out, ops.String())

	if a.Horizon > 0 {
		lat := texttable.New("Latency per operation (virtual ms)", "op", "count", "p50", "p95", "p99", "max")
		for _, op := range []trace.Op{trace.OpInsert, trace.OpQuery} {
			h := a.DurationHistogram(op)
			if h.Total() == 0 {
				continue
			}
			lat.AddRow(string(op), fmt.Sprint(h.Total()),
				fmt.Sprint(h.Quantile(50)), fmt.Sprint(h.Quantile(95)),
				fmt.Sprint(h.Quantile(99)), fmt.Sprint(h.Max()))
		}
		fmt.Fprintln(out, lat.String())
	}

	ranking := a.NodeRanking()
	if top > len(ranking) {
		top = len(ranking)
	}
	loads := texttable.New(fmt.Sprintf("Top %d nodes by traffic", top), "node", "tx", "rx", "total")
	for _, n := range ranking[:top] {
		loads.AddRow(fmt.Sprint(n.Node), fmt.Sprint(n.Tx), fmt.Sprint(n.Rx), fmt.Sprint(n.Total()))
	}
	fmt.Fprintln(out, loads.String())

	queries := a.RootsByOp(trace.OpQuery)
	if spans > len(queries) {
		spans = len(queries)
	}
	if spans > 0 {
		fmt.Fprintf(out, "first %d query spans:\n", spans)
		for _, s := range queries[:spans] {
			if err := s.WriteTree(out); err != nil {
				return err
			}
		}
	}
	return nil
}
