package main

import "strings"

var workloads = []*workloadDef{
	{
		name: "sync_range", pin: 4, batch: syncRangeBatch,
		why:    "paper's Fig 6/7 path: per batch N=900, 3 events/node, 5000 range queries per system over the four query shapes on synchronous Pool and DIM; scheme resolution, GPSR and Transmit do all the work",
		layers: syncLayers,
	},
	{
		name: "sync_ingest", pin: 3, batch: syncIngestBatch,
		why:    "writes beside reads on the same layers: per batch and scheme (Pool, DIM, GHT) 54000 inserts into an empty N=900 store, a point query after every 2nd; a read optimisation that taxes inserts shows here",
		layers: syncLayers,
	},
	{
		name: "actor_wave", pin: 2, batch: actorWaveBatch,
		why:    "actor engine at N=3600: per batch 4 waves of 10800 concurrent inserts, then 5 rounds of 400 concurrent queries; event kernel at a deep pending set, typed dispatch, SendEvent, hop-by-hop protocol",
		layers: actorLayers,
	},
	{
		name: "load_open", pin: 2, batch: loadOpenBatch,
		why:    "serving path: open-loop Poisson arrivals at 50, 100, 150, 200, 300 ops/s for 30 virtual s each on the N=900 actor engine in service mode; arrival chain, node queues, SLO windows, shallow pending set",
		layers: loadLayers,
	},
	{
		name: "churn_repair", pin: 2, batch: churnRepairBatch,
		why:    "what the others bypass: N=900, 150 virtual s of 10% churn on replicated Pool and actor universes; beacons, re-planarisation, message-driven repair, anti-entropy; the one with product telemetry on",
		layers: churnLayers,
	},
	{
		name: "tables_all", pin: 2, batch: tablesAllBatch, tracedOnce: true,
		why:              "what README tells users to run: poolsim -seed <seed> all as a subprocess, 24 tables over dozens of short-lived deployments, so deployment construction and the experiment fan-out matter",
		poolMsgsPerQuery: func(r *run) float64 { return r.sum["pool.cost_geomean"] },
		layers:           tablesLayers,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
