package main

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json name for name; the package test checks it.
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run, on every workload. Every
// workload issues two kinds of request: a miss needs a simulation to answer
// (a sweep call, a fresh run, a fleet sweep) and a hit asks for a result
// that already exists (exporting a finished sweep, a cached run, re-reading
// a finished fleet sweep).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"runs_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"miss_p75_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p75_ms", "ms"},
}

// perLayer is reported by every traced run, on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"error_frac", "frac"},
	{"accounting.gap_frac", "frac"},
	{"tail.miss_p95_ms", "ms"},
	{"tail.hit_p95_ms", "ms"},

	{"workload.generate_ms", "ms"},
	{"system.run_ms.irix", "ms"},
	{"system.run_ms.equip", "ms"},
	{"system.run_ms.equal_eff", "ms"},
	{"system.run_ms.pdpa", "ms"},
	{"system.events_per_run", "count"},
	{"system.ns_per_event", "ns"},
	{"system.allocs_per_run", "count"},

	{"cpu.sim", "frac"},
	{"cpu.machine", "frac"},
	{"cpu.rm", "frac"},
	{"cpu.core", "frac"},
	{"cpu.policy", "frac"},
	{"cpu.qs", "frac"},
	{"cpu.nthlib", "frac"},
	{"cpu.selfanalyzer", "frac"},
	{"cpu.app", "frac"},
	{"cpu.stats", "frac"},
	{"cpu.obs", "frac"},
	{"cpu.runtime_map", "frac"},
	{"cpu.runtime_gc", "frac"},
	{"cpu.runtime_malloc", "frac"},
	{"cpu.encoding_json", "frac"},
	{"cpu.net_http", "frac"},
	{"cpu.syscall", "frac"},
	{"cpu.other", "frac"},

	{"sweep.parallel_eff", "frac"},
	{"sweep.tail_ms", "ms"},

	{"client.submit_ms.p50", "ms"},
	{"client.submit_ms.p95", "ms"},
	{"client.get_ms.p50", "ms"},
	{"client.get_ms.p95", "ms"},

	{"server.post_runs_ms.p50", "ms"},
	{"server.post_runs_ms.p95", "ms"},
	{"server.get_run_ms.p50", "ms"},
	{"server.get_run_ms.p95", "ms"},
	{"server.get_run_kb", "kB"},
	{"server.status.2xx", "count"},
	{"server.status.4xx", "count"},
	{"server.status.429", "count"},
	{"server.status.5xx", "count"},

	{"runqueue.queue_wait_ms.p50", "ms"},
	{"runqueue.queue_wait_ms.p95", "ms"},
	{"runqueue.exec_ms.p50", "ms"},
	{"runqueue.exec_ms.p95", "ms"},
	{"runqueue.simulate_ms.p50", "ms"},
	{"runqueue.simulate_ms.p95", "ms"},
	{"runqueue.finish_ms.p50", "ms"},
	{"runqueue.allocs_per_run", "count"},
	{"runqueue.hit_ratio", "frac"},
	{"runqueue.dedup", "count"},
	{"runqueue.evictions", "count"},
	{"runqueue.inflight_max", "count"},
	{"runqueue.queue_depth_max", "count"},
	{"runqueue.lock_probe_ms.p99", "ms"},
	{"runqueue.lock_probe_ms.max", "ms"},

	{"store.appends", "count"},
	{"store.kb_per_append", "kB"},
	{"store.fsyncs", "count"},
	{"store.compactions", "count"},
	{"store.disk_write_mb", "MB"},
	{"store.write_amp", "ratio"},
	{"store.lock_probe_ms.max", "ms"},

	{"fleet.post_sweeps_ms", "ms"},
	{"fleet.get_sweep_ms.p50", "ms"},
	{"fleet.get_sweep_ms.p95", "ms"},
	{"fleet.node_post_runs", "count"},
	{"fleet.node_post_run_ms.p50", "ms"},
	{"fleet.node_post_run_ms.p95", "ms"},
	{"fleet.node_get_runs", "count"},
	{"fleet.node_get_run_ms.p50", "ms"},
	{"fleet.node_gets_per_status", "ratio"},
	{"fleet.node_resp_mb", "MB"},
	{"fleet.placement_skew", "ratio"},
	{"fleet.heartbeats", "count"},
	{"fleet.heartbeat_gap_ms.max", "ms"},
	{"fleet.node_deaths", "count"},
	{"fleet.requeues", "count"},
	{"fleet.hop_overhead_s", "s"},
	{"fleet.submit_serial_frac", "frac"},

	{"gc.cpu_frac", "frac"},
	{"gc.cycles", "count"},
	{"heap.live_mb_end", "MB"},
	{"gen.late_ms.p95", "ms"},
	{"gen.late_ms.max", "ms"},
}
