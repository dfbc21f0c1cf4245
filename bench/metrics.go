package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list; bound is zero for per-layer metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one entry of BENCHMARK.json's workloads list.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the checkout root.
func loadBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bf := &benchmarkFile{}
	return bf, json.Unmarshal(data, bf)
}

// endToEndMetrics are the gated metrics, the same four on every
// workload. BENCHMARK.json repeats them; a test keeps the two equal.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ms_p25", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// perLayerMetrics are the traced run's metrics. Every traced run
// prints all of them; a layer the workload does not exercise reads 0
// there.
var perLayerMetrics = []metricDef{
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "sim.schedule_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.packet_send_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.packets_per_op", Unit: "count", Better: "lower"},
	{Name: "fabric.retransmits", Unit: "count", Better: "lower"},
	{Name: "fabric.flow_send_ns", Unit: "ns", Better: "lower"},
	{Name: "topology.route_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.build_47_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.e15_point_1000_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.e15_point_4096_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.e15_point_15625_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.e15_point_64000_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.e15_point_103823_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.e15_k1_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.windows", Unit: "count", Better: "lower"},
	{Name: "cluster.blocked_windows", Unit: "count", Better: "lower"},
	{Name: "cluster.blocked_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.cross_events", Unit: "count", Better: "lower"},
	{Name: "cluster.speedup_k2", Unit: "x", Better: "higher"},
	{Name: "cluster.parallel_eff", Unit: "frac", Better: "higher"},
	{Name: "mpi.messages_per_op", Unit: "count", Better: "lower"},
	{Name: "mpi.us_per_msg", Unit: "us", Better: "lower"},
	{Name: "mpi.world_run_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "apps.stencil_reference_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.lru_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.store_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "serve.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "serve.store_hits_per_op", Unit: "count", Better: "higher"},
	{Name: "store.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "deep.content_hash_us", Unit: "us", Better: "lower"},
	{Name: "deep.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "deep.table_render_us", Unit: "us", Better: "lower"},
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.alloc_mb_per_op", Unit: "MiB", Better: "lower"},
	{Name: "host.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "host.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "host.wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "host.wall_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "host.ops_per_s_raw", Unit: "1/s", Better: "higher"},
	{Name: "host.steal_frac", Unit: "frac", Better: "lower"},
	{Name: "host.tracing_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
}
