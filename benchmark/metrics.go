package main

// metricKind says how the host-speed reference applies to a metric.
type metricKind uint8

const (
	kindCount metricKind = iota // counts, bytes, ratios: reported as measured
	kindTime                    // durations: divided by host_slowness
	kindRate                    // per-second rates: multiplied by host_slowness
)

type metricDef struct {
	name string
	unit string
	kind metricKind
}

// endToEnd lists the metrics of an untraced run, in print order.
// BENCHMARK.json carries the same names and units (bench_test.go
// holds the two together).
var endToEnd = []metricDef{
	{"setup_s", "s", kindTime},
	{"throughput_ops_s", "ops/s", kindRate},
	{"latency_p50_ms", "ms", kindTime},
	{"latency_p95_ms", "ms", kindTime},
	{"ttfp_p50_ms", "ms", kindTime},
	{"cpu_ms_per_op", "ms", kindTime},
	{"alloc_kb_per_op", "KB", kindCount},
	{"read_latency_p50_ms", "ms", kindTime},
}

// perLayer lists the metrics of a traced run. All are as measured.
var perLayer = []metricDef{
	{"server.exec_ms", "ms", kindCount},
	{"server.exec_overhead_ms", "ms", kindCount},
	{"server.stream_ms", "ms", kindCount},
	{"server.client_net_ms", "ms", kindCount},
	{"server.result_mb_s", "MB/s", kindCount},
	{"server.ttfp_share", "ratio", kindCount},
	{"server.peak_heap_mb", "MB", kindCount},
	{"server.gc_cycles_per_kop", "count", kindCount},
	{"server.latency_p99_ms", "ms", kindCount},
	{"server.free_read_p50_ms", "ms", kindCount},
	{"wire.encode_ns_page", "ns", kindCount},
	{"wire.decode_ns_page", "ns", kindCount},
	{"wire.overhead_bytes_ratio", "ratio", kindCount},
	{"relation.marshal_ns_page", "ns", kindCount},
	{"relation.unmarshal_ns_page", "ns", kindCount},
	{"relation.decode_alloc_kb_page", "KB", kindCount},
	{"sched.admit_wait_ms", "ms", kindCount},
	{"sched.dispatch_ms", "ms", kindCount},
	{"sched.deferred_ratio", "ratio", kindCount},
	{"sched.runner_utilization", "ratio", kindCount},
	{"query.parse_bind_us", "us", kindCount},
	{"core.execute_ms", "ms", kindCount},
	{"core.overhead_ratio", "ratio", kindCount},
	{"core.alloc_kb_per_exec", "KB", kindCount},
	{"core.mallocs_per_exec", "count", kindCount},
	{"core.pages_moved_per_exec", "count", kindCount},
	{"relalg.serial_ms", "ms", kindCount},
	{"relalg.restrict_ns_tuple", "ns", kindCount},
	{"relalg.join_build_ns_tuple", "ns", kindCount},
	{"relalg.join_probe_ns_tuple", "ns", kindCount},
	{"heap.hit_ratio", "ratio", kindCount},
	{"heap.misses_per_op", "count", kindCount},
	{"heap.evictions_per_op", "count", kindCount},
	{"heap.writebacks_per_op", "count", kindCount},
	{"heap.page_fault_us", "us", kindCount},
	{"heap.page_hit_ns", "ns", kindCount},
	{"heap.busy_share", "ratio", kindCount},
	{"heap.file_bytes_per_user_byte", "ratio", kindCount},
	{"wal.append_ms", "ms", kindCount},
	{"wal.fsync_ms", "ms", kindCount},
	{"wal.fsyncs_per_write", "ratio", kindCount},
	{"wal.bytes_per_user_byte", "ratio", kindCount},
	{"wal.checkpoint_ms", "ms", kindCount},
	{"wal.checkpoints_per_kop", "count", kindCount},
	{"wal.recovery_ms", "ms", kindCount},
	{"wal.replayed_records", "count", kindCount},
	{"obs.traced_throughput_ratio", "ratio", kindCount},
	{"obs.metrics_off_throughput_ratio", "ratio", kindCount},
	{"bench.host_slowness", "ratio", kindCount},
	{"bench.raw_throughput_ops_s", "ops/s", kindCount},
	{"bench.raw_latency_p50_ms", "ms", kindCount},
	{"bench.span_gap_ratio", "ratio", kindCount},
}
