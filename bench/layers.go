package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"

	"pooldcs/internal/stats"
)

// The per-layer metrics of a traced run come from three sources, all
// outside the program: spans around the bench's calls into a layer
// (pass t), deltas of public counters over the pinned batches (pass u,
// the untraced one, so the figures the issue calls end-to-end are free
// of tracing overhead), and the isolated replays of replay.go.

// spanQuantile is the p-th percentile, in ns, over the spans of the
// given kinds of one layer.
func spanQuantile(t *run, p float64, layer string, names ...string) float64 {
	var all []float64
	for _, n := range names {
		all = append(all, t.sp.durations(layer, n)...)
	}
	return stats.Percentile(all, p)
}

// spanMean is the mean length, in ns, over the spans of the given
// kinds of one layer, and how many there were.
func spanMean(t *run, layer string, names ...string) (mean float64, n int) {
	total := 0.0
	for _, name := range names {
		d := t.sp.durations(layer, name)
		n += len(d)
		for _, v := range d {
			total += v
		}
	}
	if n == 0 {
		return 0, 0
	}
	return total / float64(n), n
}

// queryKinds are the span names of a scheme's query calls.
var queryKinds = []string{"query.exact_uniform", "query.exact_exp", "query.partial1", "query.partial2", "query.point"}

// commonLayers fills the metrics that every in-process workload shares.
func commonLayers(u, t *run, m values) {
	m["allocs_per_op"] = float64(u.mallocs) / float64(max(u.ops, 1))
	m["bench.alloc_kb_per_op"] = float64(u.allocBytes) / 1024 / float64(max(u.ops, 1))
	m["bench.gc_cycles"] = float64(u.gcCycles)
	m["bench.span_count"] = float64(len(t.sp.list))
	m["bench.trace_overhead_pct"] = traceOverheadPct(u, t)
	m["failed_ops_share"] = failedOpsShare(u)

	m["field.generate_ms"] = spanQuantile(t, 50, "field", "generate") / 1e6
	m["gpsr.planarize_ms"] = spanQuantile(t, 50, "gpsr", "planarize") / 1e6
	m["field.nearest_ns"] = median(t.samples["field.nearest_ns"])

	m["network.msgs_insert"] = u.sum["net.insert"]
	m["network.msgs_query"] = u.sum["net.query"]
	m["network.msgs_reply"] = u.sum["net.reply"]
	m["network.msgs_control"] = u.sum["net.control"]
	m["network.bytes"] = u.sum["net.bytes"]
	m["network.drops"] = u.sum["net.drops"]
	m["network.msgs_per_op"] = msgsPerOp(u)
	m["network.transmit_ns"] = median(t.samples["network.transmit_ns"])

	m["gpsr.route_ns_per_hop"] = median(t.samples["gpsr.route_ns_per_hop"])
	m["gpsr.hops_per_route"] = t.ratio("gpsr.hops", "gpsr.routes")
	m["gpsr.perimeter_hop_share"] = t.ratio("gpsr.perimeter_hops", "gpsr.hops")
	m["gpsr.unreachable"] = t.sum["gpsr.unreachable"]
}

// failedOpsShare is the share of the pinned batches' operations that
// failed, were left queued or shed by the load engine, or over-reported
// their completeness under injected faults.
func failedOpsShare(u *run) float64 {
	return (u.sum["failed"] + u.sum["overreported"] + u.sum["load.abandoned"] + u.sum["load.shed"]) / max(u.sum["attempted"], 1)
}

// traceOverheadPct compares the two passes over the batches both ran,
// which have the same inputs.
func traceOverheadPct(u, t *run) float64 {
	var uw, tw float64
	for i := 0; i < min(len(u.wallS), len(t.wallS)); i++ {
		uw += u.wallS[i]
		tw += t.wallS[i]
	}
	if uw == 0 {
		return 0
	}
	return (tw/uw - 1) * 100
}

// pinnedRunNs is the time the traced pass spent inside the spans that
// run the scheduler, scaled to the pinned batches, whose counters the
// shares divide.
func pinnedRunNs(t *run, layer, name string) float64 {
	if len(t.wallS) == 0 {
		return 0
	}
	return t.sp.total(layer, name) / float64(len(t.wallS)) * float64(t.pin)
}

// radioMsgs is the radio transmissions of the pinned batches. Each is
// one routed hop and one Transmit (or SendEvent).
func radioMsgs(r *run) float64 {
	return r.sum["net.insert"] + r.sum["net.query"] + r.sum["net.reply"] + r.sum["net.control"]
}

// msgsPerOp is the radio transmissions per operation.
func msgsPerOp(u *run) float64 {
	if u.sum["ops"] == 0 {
		return 0
	}
	return radioMsgs(u) / u.sum["ops"]
}

// sharePct is unit cost x count per enclosing span, as a percentage.
func sharePct(unitNs, count, spanNs float64) float64 {
	if spanNs == 0 {
		return 0
	}
	return unitNs * count / spanNs * 100
}

// simLayers fills the event kernel's metrics for the three workloads
// on the virtual clock. The enclosing span is the one that runs the
// scheduler: the bench's own drain, or the load engine's Run.
func simLayers(u, t *run, m values, runLayer, runName string) {
	m["virt_s_per_wall_s"] = median(u.samples["virt_s_per_wall_s"])
	m["sim.events"] = u.sum["sim.events"]
	m["sim.events_per_s"] = median(u.samples["sim.events_per_s"])
	m["sim.events_per_op"] = u.ratio("sim.events", "ops")
	m["sim.pending_max"] = t.sum["sim.pending_max"]
	m["sim.kernel_ns_per_event"] = median(t.samples["sim.kernel_ns_per_event"])
	m["node.errors"] = u.sum["node.errors"]
	m["node.queue_depth_max"] = u.sum["node.queue_depth_max"]
	m["node.events_per_query"] = u.ratio("node.query_events", "pool.queries")
	m["node.insert_submit_ns"] = spanQuantile(t, 50, "node", "insert_submit")
	m["node.query_submit_ns"] = spanQuantile(t, 50, "node", "query_submit")
	m["virt_query_ms_p99"] = stats.Percentile(u.samples["virt_query_ms"], 99)

	runNs := pinnedRunNs(t, runLayer, runName)
	msgs := radioMsgs(t)
	m["gpsr.share_pct_est"] = sharePct(m["gpsr.route_ns_per_hop"], msgs, runNs)
	m["sim.kernel_share_pct_est"] = sharePct(m["sim.kernel_ns_per_event"], t.sum["sim.events"], runNs)
	m["network.share_pct_est"] = sharePct(m["network.transmit_ns"], msgs, runNs)
}

// storageShares estimates, for one synchronous scheme, how its call
// spans split into routing, radio accounting and the scheme's own
// work (resolution, store, filter, merge): the non-negative remainder.
func storageShares(u, t *run, layer string, kinds []string, routeNs, transmitNs float64) (gpsrPct, netPct, selfPct, spanNs float64) {
	mean, n := spanMean(t, layer, kinds...)
	if n == 0 {
		return 0, 0, 0, 0
	}
	perOp := u.ratio(layer+".msgs", layer+".ops")
	gpsrPct = sharePct(routeNs, perOp, mean)
	netPct = sharePct(transmitNs, perOp, mean)
	return gpsrPct, netPct, max(0, 100-gpsrPct-netPct), mean * float64(n)
}

// syncLayers fills the storage schemes' metrics for the two
// synchronous workloads.
func syncLayers(u, t *run, m values) {
	commonLayers(u, t, m)
	m["pool_ops_per_s"] = median(u.samples["pool.ops_per_s"])
	m["dim_ops_per_s"] = median(u.samples["dim.ops_per_s"])
	m["ght_ops_per_s"] = median(u.samples["ght.ops_per_s"])
	m["dim_msgs_per_query"] = u.ratio("dim.qmsgs", "dim.queries")
	m["pool_query_us_p50"] = spanQuantile(t, 50, "pool", queryKinds...) / 1e3
	m["pool_query_us_p99"] = spanQuantile(t, 99, "pool", queryKinds...) / 1e3

	m["pool.insert_ns_p50"] = spanQuantile(t, 50, "pool", "insert")
	for _, k := range queryKinds {
		m["pool.query_ns_"+k[len("query."):]+"_p50"] = spanQuantile(t, 50, "pool", k)
	}
	m["pool.cells_per_query"] = t.ratio("pool.cells", "replay.queries")
	m["pool.results_per_query"] = u.ratio("pool.results", "pool.queries")
	m["pool.resolve_ns"] = median(t.samples["pool.resolve_ns"])
	m["pool.insert_cell_ns"] = median(t.samples["pool.insert_cell_ns"])
	m["pool.stored_events"] = u.sum["pool.stored"]
	m["dim.insert_ns_p50"] = spanQuantile(t, 50, "dim", "insert")
	m["dim.query_ns_p50"] = spanQuantile(t, 50, "dim", queryKinds...)
	m["dim.query_ns_p99"] = spanQuantile(t, 99, "dim", queryKinds...)
	m["dim.zones_per_query"] = t.ratio("dim.zones", "replay.queries")
	m["dim.resolve_ns"] = median(t.samples["dim.resolve_ns"])
	m["ght.insert_ns_p50"] = spanQuantile(t, 50, "ght", "insert")
	m["ght.query_ns_p50"] = spanQuantile(t, 50, "ght", "query.point")
	m["ght.hash_ns"] = median(t.samples["ght.hash_ns"])

	// The enclosing spans are the schemes' own calls; the lower layers'
	// shares are weighted over all of them.
	kinds := append([]string{"insert"}, queryKinds...)
	route, transmit := m["gpsr.route_ns_per_hop"], m["network.transmit_ns"]
	var gpsrNs, netNs, spanNs float64
	for _, layer := range []string{"pool", "dim", "ght"} {
		g, n, self, ns := storageShares(u, t, layer, kinds, route, transmit)
		gpsrNs += g * ns
		netNs += n * ns
		spanNs += ns
		if layer != "ght" {
			m[layer+".self_share_pct_est"] = self
		}
	}
	if spanNs > 0 {
		m["gpsr.share_pct_est"] = gpsrNs / spanNs
		m["network.share_pct_est"] = netNs / spanNs
	}
}

// actorLayers fills actor_wave's metrics.
func actorLayers(u, t *run, m values) {
	commonLayers(u, t, m)
	simLayers(u, t, m, "sim", "run")
}

// loadLayers fills load_open's metrics.
func loadLayers(u, t *run, m values) {
	commonLayers(u, t, m)
	simLayers(u, t, m, "load", "run")
	m["load.offered"] = u.sum["load.offered"]
	m["load.served"] = u.sum["load.served"]
	m["load.abandoned"] = u.sum["load.abandoned"]
	m["load.served_share"] = u.ratio("load.served", "load.offered")
	m["load.slo_ok_pct"] = u.ratio("load.slo_ok", "load.slo_windows") * 100
	m["load.max_depth"] = u.sum["load.max_depth"]
	// Arrivals are events on the virtual clock, so each is issued at
	// the instant it is due and latency runs from that instant.
	m["load.gen_late_ms_max"] = 0
	inSLO := true
	for ri, rate := range loadRates {
		batches := u.sum[rateKey("load.batches", ri)]
		if batches == 0 {
			continue
		}
		m[rateKey("load.virt_query_ms_p50", ri)] = u.sum[rateKey("load.p50_sum", ri)] / batches
		m[rateKey("load.run_wall_ms", ri)] = median(u.samples[rateKey("load.run_wall_ms", ri)])
		// The highest rate that, with every lower one, kept every SLO
		// window and left nothing queued, on every pinned deployment.
		if inSLO = inSLO && u.sum[rateKey("load.in_slo", ri)] == batches; inSLO {
			m["max_rate_in_slo"] = rate
			m["virt_query_ms_p99"] = u.sum[rateKey("load.p99_sum", ri)] / batches
		}
	}
}

// churnLayers fills churn_repair's metrics, and repeats the pinned
// batches with the product telemetry off for the on/off ratio.
func churnLayers(u, t *run, m values) {
	commonLayers(u, t, m)
	simLayers(u, t, m, "sim", "run")
	m["recall_pct"] = u.ratio("recall_sum", "probes") * 100
	m["pool.stored_events"] = u.sum["pool.stored"]
	m["pool.mirrored_events"] = u.sum["pool.mirrored"]
	m["pool.recovery_msgs"] = u.sum["pool.recovery_msgs"]
	m["chaos.crashes"] = u.sum["chaos.crashes"]
	m["chaos.recoveries"] = u.sum["chaos.recoveries"]
	m["chaos.detect_virt_ms_p50"] = u.ratio("chaos.detect_p50_sum", "batches")
	m["chaos.detect_virt_ms_p95"] = u.ratio("chaos.detect_p95_sum", "batches")
	m["discovery.beacon_msgs"] = u.sum["discovery.beacons"]
	m["antientropy.sessions"] = u.sum["ae.sessions"]
	m["antientropy.symbols"] = u.sum["ae.symbols"]
	m["antientropy.bytes"] = u.sum["ae.bytes"]
	m["antientropy.fallbacks"] = u.sum["ae.fallbacks"]
	m["antientropy.aborted"] = u.sum["ae.aborted"]
	m["antientropy.events_moved_per_symbol"] = u.ratio("ae.moved", "ae.symbols")
	m["node.repairs"] = u.sum["node.repairs"]
	m["node.repair_msgs"] = u.sum["node.repair_msgs"]
	m["node.repair_bytes"] = u.sum["node.repair_bytes"]
	m["node.repair_virt_ms_p50"] = u.ratio("node.repair_p50_sum", "batches")
	m["node.repair_virt_ms_p95"] = u.ratio("node.repair_p95_sum", "batches")
	m["trace.events"] = u.sum["trace.events"]
	m["trace.dropped"] = u.sum["trace.dropped"]
	m["attrib.analyze_ms"] = spanQuantile(t, 50, "attrib", "analyze") / 1e6
	m["metrics.expose_ms"] = spanQuantile(t, 50, "metrics", "expose") / 1e6

	m["gpsr.replanarize_us_per_fault"] = median(t.samples["gpsr.replanarize_us_per_fault"])
	m["network.broadcast_ns"] = median(t.samples["network.broadcast_ns"])
	m["antientropy.round_wall_us"] = median(t.samples["antientropy.round_wall_us"])
	m["antientropy.encode_ns_per_symbol"] = median(t.samples["antientropy.encode_ns_per_symbol"])
	for _, d := range []string{"1", "32", "1024"} {
		m["antientropy.decode_us_d"+d] = median(t.samples["antientropy.decode_us_d"+d])
	}

	runNs := pinnedRunNs(t, "sim", "run")
	beacons := t.sum["discovery.beacons"]
	msgs := radioMsgs(t)
	m["discovery.beacon_share_pct_est"] = sharePct(m["network.broadcast_ns"], beacons, runNs)
	// Unicast frames only: a beacon is one control message, counted above.
	m["network.share_pct_est"] = sharePct(m["network.transmit_ns"], msgs-beacons, runNs)
	m["gpsr.share_pct_est"] = sharePct(m["gpsr.route_ns_per_hop"], msgs-beacons, runNs)

	off := newRun(u.pin, u.seed, u.scale, nil)
	for off.b = 0; off.b < off.pin; off.b++ {
		churnBatch(off, off.b, false)
	}
	if on, base := median(u.wallS[:min(len(u.wallS), u.pin)]), median(off.wallS); base > 0 {
		m["telemetry.on_off_wall_ratio"] = on / base
	}
}

// tablesLayers fills tables_all's metrics: every experiment run singly
// through the binary, and the whole set once more on one worker.
func tablesLayers(u, t *run, m values) {
	m["bench.trace_overhead_pct"] = traceOverheadPct(u, t)
	m["bench.span_count"] = float64(len(t.sp.list))
	m["failed_ops_share"] = failedOpsShare(u)
	m["experiment.fig6a_pool_n1200"] = u.sum["fig6a.pool_last"]
	m["experiment.fig6a_dim_n1200"] = u.sum["fig6a.dim_last"]
	if u.scale < 1 {
		return // the quick test runs stop at the subset tablesAllBatch ran
	}

	seed := strconv.FormatInt(u.seed, 10)
	shown := map[string]bool{}
	for _, name := range shownTables {
		shown[name] = true
	}
	var singles bytes.Buffer
	for i, name := range tableNames {
		id := t.sp.begin(t.sp.kind("experiment", name), i)
		c, err := poolsim("-seed", seed, name)
		t.sp.end(id)
		if err != nil {
			t.err = err
			return
		}
		singles.Write(c.stdout)
		if ms := c.wall.Seconds() * 1e3; shown[name] {
			m["experiment."+name+"_wall_ms"] = ms
		} else {
			m["experiment.other_tables_wall_ms"] += ms
		}
	}
	id := t.sp.begin(t.sp.kind("experiment", "all.parallel1"), 0)
	seq, err := poolsim("-seed", seed, "-parallel", "1", "all")
	t.sp.end(id)
	if err != nil {
		t.err = err
		return
	}
	m["experiment.parallel_speedup"] = seq.wall.Seconds() / median(u.wallS)
	// One output, however it is produced: repeated runs (checked by the
	// batches), one worker, and table by table.
	equal := sha256.Sum256(seq.stdout) == u.stdoutSum && sha256.Sum256(singles.Bytes()) == u.stdoutSum
	if equal {
		m["experiment.stdout_sha256_equal"] = 1
	} else {
		t.fail("poolsim stdout differs between all, -parallel 1 all, and the tables run singly")
		fmt.Fprintf(os.Stderr, "bench: all %x\n", u.stdoutSum)
	}
}
