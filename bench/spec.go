package main

// This file is the one place the benchmark's names live: the workloads,
// the end-to-end metrics with the bound by which each may worsen before
// a change counts as a regression, and the per-layer metrics.
// BENCHMARK.json at the repository root repeats them for the driver;
// bench_test.go checks that the two agree.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(cfg runConfig, tr *tracer, root uint32) (*result, error)
}

var workloads = []workloadSpec{
	{"sim-256", "256 simulated processes, 10 requests a round, timed in simulated rounds: only batch/core/dht/ldb/sim work and the figures are exact for a seed, so the paper's rounds model lives here", runSim},
	{"net3-open", "3 loopback members, open loop at 2000 ops/s (a quarter of capacity): adds wire/tcp/server/client; latency is TIMEOUT pacing and tree/DHT hops, not CPU, so a faster codec must not show here", netWorkload(netSpec{members: 3, clientsAt: []int{0, 1}, rate: 2000})},
	{"net7-open", "7 loopback members, open loop at 1000 ops/s: the same layers under a taller aggregation tree, the paper's scalability axis; latency should grow with tree height and not with load", netWorkload(netSpec{members: 7, clientsAt: []int{0, 1}, rate: 1000})},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from its untraced run only.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"rounds_per_op", "rounds", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named after
// the module they measure. They carry no bound.
var perLayer = []metricSpec{
	{Name: "client.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.submit_us_p99", Unit: "us", Better: "lower"},
	{Name: "client.wait_us_p50", Unit: "us", Better: "lower"},

	{Name: "wire.cli_enqueue_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.cli_done_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.write_us", Unit: "us", Better: "lower"},
	{Name: "wire.read_us", Unit: "us", Better: "lower"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.value_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.value_decode_ns", Unit: "ns", Better: "lower"},

	{Name: "tcp.peer_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "tcp.peer_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tcp.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "tcp.conn_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "tcp.conn_reads_per_op", Unit: "count", Better: "lower"},

	{Name: "server.raw_op_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.raw_op_durable_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.journal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.fill_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.drain_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.dur3_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.dur3_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.dur3_sat_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "server.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "server.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "server.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "server.idle_cpu_ms_per_s", Unit: "ms/s", Better: "lower"},

	{Name: "core.ticks_per_op", Unit: "rounds", Better: "lower"},
	{Name: "core.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.timeouts_per_op", Unit: "count", Better: "lower"},
	{Name: "core.step_us", Unit: "us", Better: "lower"},
	{Name: "core.idle_step_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "core.tree_height", Unit: "count", Better: "lower"},
	{Name: "core.max_batch_runs", Unit: "count", Better: "lower"},
	{Name: "core.waves_assigned", Unit: "count", Better: "higher"},
	{Name: "core.parked_gets", Unit: "count", Better: "lower"},

	{Name: "dht.put_ns", Unit: "ns", Better: "lower"},
	{Name: "dht.get_ns", Unit: "ns", Better: "lower"},
	{Name: "ldb.route_hops_mean", Unit: "count", Better: "lower"},
	{Name: "batch.combine_ns", Unit: "ns", Better: "lower"},
	{Name: "batch.assign_ns", Unit: "ns", Better: "lower"},
	{Name: "batch.decompose_ns", Unit: "ns", Better: "lower"},

	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.read_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.write_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.sys_cpu_share", Unit: "share", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "proc.mutex_wait_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "gen.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "gen.sat_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "proc.sat_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "seqcheck.check_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.span_coverage_share", Unit: "share", Better: "higher"},
}
