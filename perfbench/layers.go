package main

// layerMetrics lists every per-layer metric with its unit, in report
// order. A traced run reports each one; a layer the workload never
// reaches reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.backlog_max", "count"},
	{"transport.us_per_req", "us"},
	{"http.handler_us_per_req", "us"},
	{"http.self_us_per_req", "us"},
	{"http.allocs_per_req", "allocs"},
	{"decode.us_per_req", "us"},
	{"decode.ns_per_update", "ns"},
	{"decode.allocs_per_req", "allocs"},
	{"decode.bytes_per_req", "bytes"},
	{"commit.us_per_req", "us"},
	{"commit.self_us_per_req", "us"},
	{"validate.us_per_req", "us"},
	{"wal.append_us_per_req", "us"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.bytes_per_req", "bytes"},
	{"wal.replay_us_per_step", "us"},
	{"facade.us_per_step", "us"},
	{"facade.self_us_per_step", "us"},
	{"facade.allocs_per_step", "allocs"},
	{"read.topk_us", "us"},
	{"read.cost_us", "us"},
	{"protocol.self_us_per_step", "us"},
	{"protocol.epochs_per_kstep", "epochs"},
	{"protocol.msgs_per_step", "msgs"},
	{"protocol.max_rounds_per_step", "rounds"},
	{"engine.advance_us_per_step", "us"},
	{"engine.sweep_us_per_step", "us"},
	{"engine.collect_us_per_step", "us"},
	{"engine.maxfind_us_per_step", "us"},
	{"engine.send_us_per_step", "us"},
	{"engine.calls_per_step", "calls"},
	{"engine.reports_per_step", "reports"},
	{"items.observe_ns_per_event", "ns"},
	{"items.step_us", "us"},
	{"items.msgs_per_step", "msgs"},
	{"trace.inprocess_us_per_req", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unexplained_frac", "ratio"},
}

// e2eMetrics lists the end-to-end metrics the JSON line carries, with
// their units. Latency and sustained rate are printed by name and unit
// too, but not carried: on a shared VM they follow the host's load, and
// their spread over ten seeds ran to several times the median (README
// gives the measured spreads of both groups).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"server_cpu_us_per_update", "us"},
	{"msgs_per_update", "msgs"},
	{"rss_mb", "MiB"},
}
