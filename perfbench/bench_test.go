package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// shortOps is the operation budget per measured phase in the self-tests:
// enough for every labs challenge and every results-chain step to run.
var shortOps = map[string]int64{"labs-explore": 6, "results-chain": 6, "engine-spill": 2}

func runShort(t *testing.T, name string, traced, corrupt bool) (result, map[string]any) {
	t.Helper()
	res, meta, err := run(context.Background(), workloads[name], options{
		workload: name, seed: 7, seconds: 60, traced: traced, workDir: t.TempDir(),
		maxOps: shortOps[name], corrupt: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, meta
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(m metrics) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got metrics, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	g := names(got)
	if len(g) != len(w) {
		t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, g, w)
		}
	}
}

func TestWorkloadsRunAndReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, meta := runShort(t, name, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted != shortOps[name] {
				t.Fatalf("untraced: %+v, meta %v", res, meta["errors"])
			}
			sameNames(t, "untraced", res.Metrics, endToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
			res, meta = runShort(t, name, true, false)
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*shortOps[name] {
				t.Fatalf("traced: %+v, meta %v", res, meta["errors"])
			}
			sameNames(t, "traced", res.Metrics, perLayer)
		})
	}
}

// deterministicCounters are the per-layer counts that must repeat exactly
// between two runs of one seed over the same operations.
var deterministicCounters = []string{
	"core.alternatives", "runner.rows",
	"dataflow.rows_read", "dataflow.batches", "dataflow.shuffled_rows", "dataflow.tasks",
	"storage.spill_bytes", "storage.spill_logical_bytes", "storage.spill_batches",
	"storage.sort_runs", "storage.agg_spilled_partitions", "storage.spill_file_peak_bytes",
	"cluster.tasks",
	"store.fsyncs_per_save", "store.frames_scanned", "store.frames_skipped",
	"store.wal_records", "store.checkpoints",
}

func TestDeterministicCountersRepeat(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			first, _ := runShort(t, name, true, false)
			second, _ := runShort(t, name, true, false)
			nonzero := 0
			for _, c := range deterministicCounters {
				a, b := first.Metrics[c].Value, second.Metrics[c].Value
				if a != b {
					t.Errorf("%s: %v then %v", c, a, b)
				}
				if a != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Errorf("no deterministic counter was recorded")
			}
		})
	}
}

func TestWrongOutputCountsAsFailure(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, meta := runShort(t, name, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted outputs passed the checks: %+v", res)
			}
			if rate, _ := meta["error_rate"].(float64); rate <= 0 {
				t.Fatalf("error_rate %v with %d failed of %d", meta["error_rate"], res.Failed, res.Attempted)
			}
		})
	}
}
