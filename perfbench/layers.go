package main

// metricDef is one reported metric. For a per-layer metric, moves names the
// end-to-end metric(s) it should move and on the workload(s) where it
// should, in the same order ("a; b" pairs with "x; y").
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// e2eMetrics are printed by every run with --trace 0. failed_frac is
// carried by the result's attempted and failed counts: it is 0 on a healthy
// run, and a gated metric must never read 0.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "restart_ready_s", unit: "s", better: "lower"},
	{name: "server_rss_mb", unit: "MB", better: "lower"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "read_p90_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "visible_p50_ms", unit: "ms", better: "lower"},
	{name: "visible_p90_ms", unit: "ms", better: "lower"},
	{name: "ingest_ops_s", unit: "ops/s", better: "higher"},
	{name: "write_bytes_per_op", unit: "B", better: "lower"},
}

// scaleMetrics are replayed at 10k and 1M nodes to show whether publish cost
// follows the batch size or n.
var scaleMetrics = []metricDef{
	{name: "graph.freeze_ms", unit: "ms"},
	{name: "centrality.ranking_ms", unit: "ms"},
	{name: "heal.label_copy_us", unit: "us"},
	{name: "wal.append_labels_us", unit: "us"},
	{name: "heal.distvec_apply_us", unit: "us"},
}

// scales are the replay sizes: node count and epochs replayed.
var scales = []struct {
	suffix         string
	nodes, batches int
}{{".n10k", 10_000, 40}, {".n1m", 1_000_000, 9}}

// layerMetrics are printed by every run with --trace 1: the layer→metric
// map of the traced run.
var layerMetrics = append([]metricDef{
	{"server.route_us", "us", "lower", "read_p50_us, cpu_us_per_op", "read-mix"},
	{"server.labels_us", "us", "lower", "read_p50_us, cpu_us_per_op", "read-mix"},
	{"server.khop_us", "us", "lower", "read_p50_us, cpu_us_per_op", "read-mix"},
	{"server.topk_us", "us", "lower", "read_p50_us, cpu_us_per_op", "read-mix"},
	{"server.read_alloc_b", "B", "lower", "cpu_us_per_op; read_p90_us", "read-mix; write-churn"},
	{"server.socket_us", "us", "lower", "read_p50_us", "read-mix"},
	{"server.mutate_us", "us", "lower", "visible_p50_ms", "write-churn"},
	{"server.new_cold_ms", "ms", "lower", "setup_s", "all"},
	{"server.new_warm_ms", "ms", "lower", "restart_ready_s", "all"},
	{"server.gc_per_s", "1/s", "lower", "read_p90_us; cpu_us_per_op", "write-churn; all"},
	{"wal.create_ms", "ms", "lower", "setup_s", "all"},
	{"wal.append_us", "us", "lower", "visible_p50_ms; ingest_ops_s", "write-churn; ingest"},
	{"wal.fsync_us", "us", "lower", "visible_p50_ms; ingest_ops_s", "write-churn; ingest"},
	{"wal.append_labels_us", "us", "lower", "visible_p50_ms; ingest_ops_s", "write-churn; ingest"},
	{"wal.compact_ms", "ms", "lower", "visible_p90_ms", "ingest"},
	{"wal.bytes_per_op", "B", "lower", "write_bytes_per_op", "write-churn, ingest"},
	{"wal.open_ms", "ms", "lower", "restart_ready_s", "all"},
	{"wal.replayed_records", "count", "lower", "restart_ready_s", "all"},
	{"heal.distvec_build_ms", "ms", "lower", "setup_s", "all"},
	{"heal.mis_build_ms", "ms", "lower", "setup_s", "all"},
	{"heal.distvec_apply_us", "us", "lower", "visible_p50_ms; ingest_ops_s", "write-churn; ingest"},
	{"heal.mis_apply_us", "us", "lower", "visible_p50_ms; ingest_ops_s", "write-churn; ingest"},
	{"heal.escalation_frac", "ratio", "lower", "visible_p90_ms", "ingest, write-churn"},
	{"heal.label_copy_us", "us", "lower", "visible_p50_ms", "write-churn"},
	{"heal.warm_start_ms", "ms", "lower", "restart_ready_s", "write-churn, ingest"},
	{"graph.clone_ms", "ms", "lower", "setup_s, restart_ready_s", "all"},
	{"graph.copy_mb", "MB", "lower", "server_rss_mb", "all"},
	{"graph.freeze_ms", "ms", "lower", "visible_p50_ms, ingest_ops_s", "write-churn, ingest"},
	{"graph.freeze_alloc_mb", "MB", "lower", "read_p90_us", "write-churn"},
	{"centrality.ranking_ms", "ms", "lower", "visible_p50_ms; ingest_ops_s", "write-churn; ingest"},
	{"writer.stage_sum_ms", "ms", "lower", "visible_p50_ms", "write-churn"},
	{"writer.unexplained_ms", "ms", "lower", "visible_p50_ms", "write-churn"},
	{"writer.alloc_mb_per_epoch", "MB", "lower", "read_p90_us; cpu_us_per_op", "write-churn; ingest"},
	{"writer.ops_per_epoch", "count", "higher", "visible_p50_ms, ingest_ops_s", "write-churn, ingest"},
	{"writer.epochs_per_s", "1/s", "higher", "visible_p50_ms, ingest_ops_s", "write-churn, ingest"},
}, scaled()...)

func scaled() []metricDef {
	var out []metricDef
	for _, s := range scales {
		for _, m := range scaleMetrics {
			out = append(out, metricDef{m.name + s.suffix, m.unit, "lower",
				"visible_p50_ms (publish cost vs batch size or n)", "write-churn"})
		}
	}
	return out
}
