package main

import (
	"encoding/json"
	"os"
)

// workloadSpec names one workload and records why the benchmark runs it.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(cfg runConfig) (*result, error)
}

// metricSpec is one reported metric. Bound applies to end-to-end metrics
// only: the share of the baseline median by which the metric may worsen
// before a change counts as a regression. Moves names the end-to-end
// metrics (and workloads) a per-layer metric should move; it documents the
// layer-to-end-to-end mapping and is printed with every traced run.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// openRate is serve-mixed's open-loop offered load in requests per second,
// split evenly over the client connections. It is a constant, so every run
// and every commit offers the same load. On a 2-CPU x86-64 host the
// pipelined closed loop completes about 250k req/s, but unbatched open-loop
// arrivals saturate far sooner: at 80k req/s the generator itself falls
// milliseconds behind, while at 40k it keeps its schedule.
const openRate = 40000

var workloads = []workloadSpec{
	{Name: "kv-txn", run: runKVTxn,
		Why: "Fig 7 hash txns on unsharded transient medley, 1-10 ops at 2:1:1, 100k keys: only core MCNS, mhash and the txengine adapter run"},
	{Name: "bank-durable", run: runBank,
		Why: "Zipf 1.3 hinted transfers on txmontage-sharded (4 shards, 10ms epochs): sharded latches, montage epochs and pnvm under contention, then crash and recover"},
	{Name: "serve-mixed", run: runServe,
		Why: "loopback server on medley-sharded, 10% transfer Txn, else 90% Get/10% Put: decode, queue, batching, read lane vs OCC; traced run adds a 40000 req/s open loop"},
}

// endToEnd bounds: on the shared 2-CPU host the benchmark was built on,
// identical runs drift by up to about 15% in throughput and tail latency
// (the host's other tenants), so every timing carries the largest bound
// allowed, 0.25. A run that fails one operation in a hundred regresses.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
}

var perLayer = []metricSpec{
	{Name: "structures.op_ns", Unit: "ns", Better: "lower", Moves: "kv-txn throughput_per_s, p50_us"},
	{Name: "core.commit_ns", Unit: "ns", Better: "lower", Moves: "kv-txn p50_us; bank-durable p50_us"},
	{Name: "core.compose_ratio", Unit: "ratio", Better: "lower", Moves: "kv-txn p50_us (the paper's Fig 10 TxOn/TxOff ratio)"},
	{Name: "txengine.adapter_ns", Unit: "ns", Better: "lower", Moves: "kv-txn throughput_per_s"},
	{Name: "txengine.aborts_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable p95_us"},
	{Name: "sharded.hint_ns", Unit: "ns", Better: "lower", Moves: "bank-durable p95_us, throughput_per_s"},
	{Name: "sharded.latch_waits_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable p95_us; serve-mixed write_p95_us"},
	{Name: "sharded.latch_fallbacks_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable p95_us, throughput_per_s"},
	{Name: "sharded.xshard_restarts_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable throughput_per_s; serve-mixed write_p95_us"},
	{Name: "sharded.fp_hit_ratio", Unit: "ratio", Better: "higher", Moves: "bank-durable throughput_per_s; serve-mixed write_p95_us"},
	{Name: "montage.op_ns", Unit: "ns", Better: "lower", Moves: "bank-durable p50_us"},
	{Name: "pnvm.writes_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable throughput_per_s, pnvm.records_per_key"},
	{Name: "pnvm.writebacks_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable throughput_per_s"},
	{Name: "pnvm.fences_per_commit", Unit: "1/commit", Better: "lower", Moves: "bank-durable throughput_per_s"},
	{Name: "pnvm.records_per_key", Unit: "count", Better: "lower", Moves: "bank-durable heap.growth_mb, recovery.total_ms"},
	{Name: "recovery.dump_ms", Unit: "ms", Better: "lower", Moves: "bank-durable recovery.total_ms"},
	{Name: "recovery.rebuild_ms", Unit: "ms", Better: "lower", Moves: "bank-durable recovery.total_ms"},
	{Name: "recovery.total_ms", Unit: "ms", Better: "lower", Moves: "bank-durable restart time (crash, dump, rebuild, map ready)"},
	{Name: "server.batch_size", Unit: "ops", Better: "higher", Moves: "serve-mixed throughput_per_s"},
	{Name: "server.lane_share", Unit: "ratio", Better: "higher", Moves: "serve-mixed read_p50_us, throughput_per_s"},
	{Name: "server.combined_share", Unit: "ratio", Better: "higher", Moves: "serve-mixed read_p50_us"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower", Moves: "serve-mixed ok_frac"},
	{Name: "snapshot.stale_share", Unit: "ratio", Better: "lower", Moves: "serve-mixed read_p95_us"},
	{Name: "server.get_overhead_us", Unit: "us", Better: "lower", Moves: "serve-mixed read_p50_us"},
	{Name: "server.write_overhead_us", Unit: "us", Better: "lower", Moves: "serve-mixed write_p50_us"},
	{Name: "open.read_p50_us", Unit: "us", Better: "lower", Moves: "none: serve-mixed Get latency under independent arrivals, from due time"},
	{Name: "open.read_p99_us", Unit: "us", Better: "lower", Moves: "none: serve-mixed Get latency under independent arrivals, from due time"},
	{Name: "open.write_p50_us", Unit: "us", Better: "lower", Moves: "none: serve-mixed write latency under independent arrivals, from due time"},
	{Name: "open.write_p99_us", Unit: "us", Better: "lower", Moves: "none: serve-mixed write latency under independent arrivals, from due time"},
	{Name: "gen.lag_us", Unit: "us", Better: "lower", Moves: "none: validity of the open-loop figures"},
	{Name: "heap.growth_mb", Unit: "MB", Better: "lower", Moves: "none: heap a run's work leaves live (bank-durable: pnvm records never reclaimed)"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none: cost of the tracer itself"},
}

// benchmarkFile is the BENCHMARK.json document: how to run the benchmark,
// its workloads, and every metric with its direction (and bound).
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eEntry     `json:"end_to_end"`
	PerLayer   []layerEntry   `json:"per_layer"`
}

type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured time of one run.
const runSeconds = 5

func specDocument() benchmarkFile {
	doc := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	return doc
}

// writeSpec writes BENCHMARK.json to path.
func writeSpec(path string) error {
	b, err := json.MarshalIndent(specDocument(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
