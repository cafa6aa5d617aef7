package main

import (
	"repro/internal/dataflow"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A metric a workload does not exercise reads 0 (no store in
// labs-explore, no spill outside engine-spill, stage probes on engine-spill
// only).
var layerMetrics = []struct{ name, unit string }{
	{"core.compile_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.match_ms", "ms"},
	{"core.compose_ms", "ms"},
	{"core.elaborate_ms", "ms"},
	{"core.alternatives", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.attempts_per_op", "count"},
	{"runner.run_ms", "ms"},
	{"runner.exec_ms", "ms"},
	{"runner.rows", "count"},
	{"dataflow.rows_read", "count"},
	{"dataflow.batches", "count"},
	{"dataflow.shuffled_rows", "count"},
	{"dataflow.tasks", "count"},
	{"dataflow.allocs_per_row", "count"},
	{"dataflow.alloc_bytes_per_row", "B"},
	{"dataflow.stage.narrow_ms", "ms"},
	{"dataflow.stage.join_ms", "ms"},
	{"dataflow.stage.groupby_ms", "ms"},
	{"dataflow.stage.sort_ms", "ms"},
	{"storage.spill_bytes", "B"},
	{"storage.spill_logical_bytes", "B"},
	{"storage.spill_batches", "count"},
	{"storage.sort_runs", "count"},
	{"storage.agg_spilled_partitions", "count"},
	{"storage.spill_file_peak_bytes", "B"},
	{"cluster.tasks", "count"},
	{"cluster.task_busy_ms", "ms"},
	{"cluster.utilisation", "ratio"},
	{"cluster.attempts_per_task", "count"},
	{"store.save_ms", "ms"},
	{"store.fsyncs_per_save", "count"},
	{"store.sync_ms", "ms"},
	{"store.bytes_written_per_row", "B"},
	{"store.read_io_ms", "ms"},
	{"store.read_bytes_per_row", "B"},
	{"store.frames_scanned", "count"},
	{"store.frames_skipped", "count"},
	{"store.wal_records", "count"},
	{"store.checkpoints", "count"},
	{"store.recovery_ms", "ms"},
	{"store.space_amp", "ratio"},
	{"produce_p50_ms", "ms"},
	{"consume_p50_ms", "ms"},
	{"trace.overhead.setup_s", "%"},
	{"trace.overhead.op_p50_ms", "%"},
	{"trace.overhead.ops_per_s", "%"},
	{"trace.overhead.peak_rss_mb", "%"},
}

// spanMetrics maps per-layer metrics to the span whose mean self time they
// report.
var spanMetrics = map[string]string{
	"core.compile_ms":       "core.compile",
	"service.queue_wait_ms": "service.queue",
	"runner.run_ms":         "runner.run",
	"store.save_ms":         "store.save",
}

// sampledMetrics are reported as recorded with tracer.add.
var sampledMetrics = []string{
	"core.validate_ms", "core.match_ms", "core.compose_ms", "core.elaborate_ms", "core.alternatives",
	"service.attempts_per_op", "runner.exec_ms", "runner.rows",
	"dataflow.rows_read", "dataflow.batches", "dataflow.shuffled_rows", "dataflow.tasks",
	"storage.spill_bytes", "storage.spill_logical_bytes", "storage.spill_batches",
	"storage.sort_runs", "storage.agg_spilled_partitions", "storage.spill_file_peak_bytes",
	"cluster.tasks", "cluster.task_busy_ms", "cluster.utilisation", "cluster.attempts_per_task",
}

// setLayers fills every per-layer metric: zeros first, then the span self
// times, the recorded samples and the allocation window of the traced phase.
func setLayers(tr *tracer, m metrics) {
	units := map[string]string{}
	for _, lm := range layerMetrics {
		units[lm.name] = lm.unit
		m.set(lm.name, lm.unit, 0)
	}
	self := tr.selfTimes()
	for name, sp := range spanMetrics {
		m.set(name, units[name], self[sp])
	}
	for _, name := range sampledMetrics {
		m.set(name, units[name], tr.value(name))
	}
	if rows := tr.sum("dataflow.rows_read"); rows > 0 {
		m.set("dataflow.allocs_per_row", "count", tr.alloc.mallocs()/rows)
		m.set("dataflow.alloc_bytes_per_row", "B", tr.alloc.bytes()/rows)
	}
}

// recordEngine adds the dataflow and spill counters of one engine action.
func recordEngine(tr *tracer, kind string, s dataflow.Stats) {
	tr.add("dataflow.rows_read", kind, float64(s.RowsRead))
	tr.add("dataflow.batches", kind, float64(s.Batches))
	tr.add("dataflow.shuffled_rows", kind, float64(s.ShuffledRows))
	tr.add("dataflow.tasks", kind, float64(s.Tasks))
	tr.add("storage.spill_bytes", kind, float64(s.SpilledBytes))
	tr.add("storage.spill_logical_bytes", kind, float64(s.SpillLogicalBytes))
	tr.add("storage.spill_batches", kind, float64(s.SpilledBatches))
	tr.add("storage.sort_runs", kind, float64(s.SortRuns))
	tr.add("storage.agg_spilled_partitions", kind, float64(s.AggSpilledPartitions))
	tr.add("storage.spill_file_peak_bytes", kind, float64(s.SpillFilePeakBytes))
}
