package main

// metricDef describes one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions, and
// TestCatalogMatchesBenchmarkJSON keeps the two in step. README.md gives each
// metric's meaning, its layer, and the end-to-end metric it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// Workload names.
const (
	wlFigsQuick     = "figs-quick"
	wlPersistLookup = "persist-lookup"
	wlSocCBO        = "soc-cbo"
)

// endToEnd is reported by untraced runs, on every workload. Times are host
// time; "sim_" metrics count simulated cycles per host second.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"heap_peak_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

// perLayer is reported by traced runs, on every workload. A metric that does
// not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"sweep.job_ms_p50", "ms", "lower"},
	{"sweep.job_ms_p95", "ms", "lower"},
	{"sweep.busy_ratio", "ratio", "higher"},
	{"sweep.store_flush_ms", "ms", "lower"},
	{"bench.fig14_s", "s", "lower"},
	{"bench.fig15_s", "s", "lower"},
	{"bench.fig16_s", "s", "lower"},
	{"bench.cycle_figs_s", "s", "lower"},
	{"ds.contains_ns_p50", "ns", "lower"},
	{"ds.contains_ns_p99", "ns", "lower"},
	{"ds.update_ns_p50", "ns", "lower"},
	{"ds.self_share", "ratio", "higher"},
	{"ds.prefill_s", "s", "lower"},
	{"persist.load_calls", "count", "lower"},
	{"persist.store_calls", "count", "lower"},
	{"persist.flush_calls", "count", "lower"},
	{"persist.fence_calls", "count", "lower"},
	{"persist.call_share", "ratio", "lower"},
	{"memsim.accesses", "count", "lower"},
	{"memsim.l1_hit_ratio", "ratio", "higher"},
	{"memsim.mem_fills", "count", "lower"},
	{"memsim.coherence_misses", "count", "lower"},
	{"memsim.flushes", "count", "lower"},
	{"memsim.flush_drop_ratio", "ratio", "higher"},
	{"memsim.ns_per_access", "ns", "lower"},
	{"sim.new_ms", "ms", "lower"},
	{"sim.ns_per_cycle", "ns", "lower"},
	{"sim.ns_per_ticked_cycle", "ns", "lower"},
	{"sim.ff_skipped_ratio", "ratio", "higher"},
	{"core.committed", "count", "higher"},
	{"core.nack_retries", "count", "lower"},
	{"l1.load_hit_ratio", "ratio", "higher"},
	{"l1.store_hit_ratio", "ratio", "higher"},
	{"l1.nacks", "count", "lower"},
	{"l1.writebacks", "count", "lower"},
	{"flush.offered", "count", "lower"},
	{"flush.offered_per_instr", "ratio", "lower"},
	{"flush.skip_dropped", "count", "higher"},
	{"flush.root_releases", "count", "lower"},
	{"flush.stall_wb_rdy_cycles", "cycles", "lower"},
	{"l2.acquires", "count", "lower"},
	{"l2.acquires_per_instr", "ratio", "lower"},
	{"l2.root_release_skips", "count", "higher"},
	{"l2.link_backpressure_d_cycles", "cycles", "lower"},
	{"mem.reads", "count", "lower"},
	{"mem.writes", "count", "lower"},
	{"mem.writes_per_instr", "ratio", "lower"},
	{"pool.hit_ratio", "ratio", "higher"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_s", "s", "lower"},
}
