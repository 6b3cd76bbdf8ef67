package main

// metricDef names one reported metric and its unit. Directions and
// bounds live in BENCHMARK.json, which bench_test.go holds to these
// lists name for name and unit for unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees. Two clocks, named in
// every metric: sim_*, sojourn_*, writes_removed_pct and
// stored_per_logical are virtual time and simulated state (what the
// modelled POD device costs a user; they repeat exactly for a fixed
// seed on every workload but serve-tier); the rest are host cost (what
// this Go code costs whoever runs it). One more end-to-end figure,
// failed_ops_pct, is the result line's failed ÷ attempted: it is 0 on a
// correct run, so it cannot carry a relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_rps", "req/s"},
	{"cpu_us_per_req", "us"},
	{"alloc_bytes_per_req", "B"},
	{"peak_rss_mb", "MB"},
	{"sim_write_mean_us", "us"},
	{"sim_read_mean_us", "us"},
	{"sim_write_p99_us", "us"},
	{"sim_read_p99_us", "us"},
	{"sojourn_mean_ms", "ms"},
	{"sojourn_p99_ms", "ms"},
	{"sim_capacity_rps", "req/s"},
	{"writes_removed_pct", "%"},
	{"stored_per_logical", "ratio"},
}

// perLayer lists the per-layer metrics of a -trace run, layer by layer
// in request-path order. Source (S span, C counter, L ladder) and the
// end-to-end metric each should move are in bench/README.md.
var perLayer = []metricDef{
	// workload, trace
	{"workload.gen_ms", "ms"},
	{"workload.requests", "count"},
	{"workload.write_pct", "%"},
	{"workload.chunks_per_req", "count"},
	// replay
	{"replay.loop_ns_per_req", "ns"},
	// server, host side
	{"server.new_ms", "ms"},
	{"server.submit_ns_per_req", "ns"},
	{"server.close_ms", "ms"},
	{"server.reqs_per_batch", "count"},
	{"server.offengine_cpu_us_per_req", "us"},
	{"server.null_ns_per_req", "ns"},
	{"server.null_allocs_per_req", "count"},
	{"server.route_ns", "ns"},
	{"server.parallel_speedup", "x"},
	// server, virtual time
	{"server.sim_queue_wait_mean_us", "us"},
	{"server.shard_skew", "ratio"},
	{"server.sojourn_p50_ms", "ms"},
	{"server.sojourn_p99_ms.r500", "ms"},
	{"server.sojourn_p99_ms.r1500", "ms"},
	{"server.sojourn_p99_ms.r1800", "ms"},
	{"server.shed", "count"},
	{"server.failed", "count"},
	{"server.retries", "count"},
	// engine
	{"engine.write_ns", "ns"},
	{"engine.read_ns", "ns"},
	{"engine.busy_pct", "%"},
	{"engine.recover_ms", "ms"},
	{"engine.recover_records", "count"},
	{"engine.sim_fingerprint_mean_us", "us"},
	{"engine.sim_index_probe_mean_us", "us"},
	{"engine.sim_map_update_mean_us", "us"},
	{"engine.sim_disk_read_mean_us", "us"},
	{"engine.sim_disk_write_mean_us", "us"},
	// core
	{"core.classify_ns_per_req", "ns"},
	{"core.cat1_pct", "%"},
	{"core.cat2_pct", "%"},
	{"core.cat3_pct", "%"},
	// chunk
	{"chunk.split_fp_ns_per_req", "ns"},
	{"chunk.allocs_per_req", "count"},
	// cdc
	{"cdc.gear_mbps", "MB/s"},
	{"cdc.seqcdc_mbps", "MB/s"},
	{"cdc.materialize_mbps", "MB/s"},
	{"cdc.chunks_per_req", "count"},
	{"cdc.mean_chunk_bytes", "B"},
	// icache, index
	{"icache.lookup_ns", "ns"},
	{"icache.insert_ns", "ns"},
	{"icache.readhit_ns", "ns"},
	{"icache.readinsert_ns", "ns"},
	{"icache.purge_ns", "ns"},
	{"icache.tick_us", "us"},
	{"icache.index_hit_pct", "%"},
	{"icache.read_hit_pct", "%"},
	{"icache.repartitions", "count"},
	{"icache.index_frac_final_permille", "permille"},
	{"icache.ghost_hits", "count"},
	{"icache.swapins", "count"},
	// cache, probe
	{"cache.lru_get_hit_ns", "ns"},
	{"cache.lru_put_evict_ns", "ns"},
	{"probe.get_ns", "ns"},
	{"probe.put_ns", "ns"},
	// maptable, nvram
	{"maptable.set_ns", "ns"},
	{"maptable.lookup_ns", "ns"},
	{"maptable.sets_per_req", "count"},
	{"maptable.load_ms", "ms"},
	{"maptable.shared_entries_peak", "count"},
	{"nvram.journal_bytes_per_write", "B"},
	// alloc
	{"alloc.alloc_ns", "ns"},
	{"alloc.free_ns", "ns"},
	{"alloc.free_extents_final", "count"},
	{"alloc.largest_free_final", "count"},
	// raid, disk
	{"raid.write_ns", "ns"},
	{"raid.read_ns", "ns"},
	{"raid.rmw_pct", "%"},
	{"raid.disk_ios_per_req", "count"},
	{"disk.sim_util_pct", "%"},
	{"disk.sim_wait_share_pct", "%"},
	{"disk.seq_pct", "%"},
	// locality, icache stream mode
	{"locality.record_ns", "ns"},
	{"locality.apportion_us", "us"},
	{"icache.stream_lookup_ns", "ns"},
	{"icache.stream_insert_ns", "ns"},
	{"locality.streams", "count"},
	// globalfp
	{"globalfp.ads_per_req", "count"},
	{"globalfp.ads_dropped_pct", "%"},
	{"globalfp.dups_detected", "count"},
	{"globalfp.hints_broadcast", "count"},
	{"globalfp.remaps_applied", "count"},
	{"globalfp.table_entries", "count"},
	{"globalfp.settle_ms", "ms"},
	{"globalfp.recover_ms", "ms"},
	{"globalfp.advertise_ns", "ns"},
	{"globalfp.engine_ns_delta", "ns"},
	// bgdedup
	{"bgdedup.scanned_blocks", "count"},
	{"bgdedup.reclaimed_blocks", "count"},
	{"bgdedup.paused_pct", "%"},
	// metrics
	{"metrics.observe_ns", "ns"},
	{"metrics.snapshot_ms", "ms"},
	// Go runtime
	{"gc.cpu_pct", "%"},
	{"gc.heap_peak_mb", "MB"},
	// summary
	{"ladder.sum_ns_per_req", "ns"},
	{"ladder.residual_pct", "%"},
	{"ladder.removed_pct_delta", "%"},
	{"trace.overhead_pct", "%"},
}
