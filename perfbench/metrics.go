package main

// metricDef declares one metric as BENCHMARK.json lists it. bound is
// the share of the parent's median by which an end-to-end metric may
// worsen; per-layer metrics carry none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"mre_random_pct", "%", "lower", 0.1},
	{"max_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the traced run's metrics, named <layer>.<quantity> after
// the repository's packages. A layer a workload never calls reads 0.
var perLayer = []metricDef{
	// release: synthesis, the STPT pipeline and its evaluation.
	{"datasets.generate_s", "s", "lower", 0},
	{"core.run_s", "s", "lower", 0},
	{"core.attempts", "count", "lower", 0},
	{"core.alloc_mb", "MiB", "lower", 0},
	{"query.evaluate_ms", "ms", "lower", 0},
	// Self CPU per operation, by package, from a CPU profile.
	{"cpu.core_s", "s", "lower", 0},
	{"cpu.nn_s", "s", "lower", 0},
	{"cpu.mat_s", "s", "lower", 0},
	{"cpu.math_s", "s", "lower", 0},
	{"cpu.quadtree_s", "s", "lower", 0},
	{"cpu.dp_s", "s", "lower", 0},
	{"cpu.timeseries_s", "s", "lower", 0},
	{"cpu.runtime_s", "s", "lower", 0},
	{"runtime.gc_per_op", "count", "lower", 0},
	// query: gateway, replica handler and the range-sum index.
	{"serve.load_s", "s", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.handler_p99_us", "us", "lower", 0},
	{"gate.self_us", "us", "lower", 0},
	{"query.answer_ns", "ns", "lower", 0},
	{"serve.allocs_per_req", "count", "lower", 0},
	{"gate.allocs_per_req", "count", "lower", 0},
	{"serve.resp_bytes", "B", "lower", 0},
	{"gate.attempts_per_req", "count", "lower", 0},
	// stream: ingest, the window lifecycle, the ledger and serve reload.
	{"ingest.ingest_ms", "ms", "lower", 0},
	{"ingest.wal_batches", "count", "lower", 0},
	{"ingest.compact_ms", "ms", "lower", 0},
	{"ingest.snapshot_mb", "MiB", "lower", 0},
	{"ingest.quarantined", "count", "lower", 0},
	{"pipeline.cut_ms", "ms", "lower", 0},
	{"pipeline.release_ms", "ms", "lower", 0},
	{"pipeline.charge_ms", "ms", "lower", 0},
	{"pipeline.publish_ms", "ms", "lower", 0},
	{"pipeline.reload_ms", "ms", "lower", 0},
	{"pipeline.window_kb", "KiB", "lower", 0},
	{"pipeline.steps_per_window", "count", "lower", 0},
	{"serve.reload_ms", "ms", "lower", 0},
	{"serve.verify_us", "us", "lower", 0},
	{"dp.ledger_entries", "count", "lower", 0},
	// Share of the traced loop's timed wall clock the host stole.
	{"host.steal_pct", "%", "lower", 0},
	// The traced loop's median operation time against the untraced one.
	{"trace.overhead_pct", "%", "lower", 0},
}
