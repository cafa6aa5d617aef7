package runner

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestResultStoreRoundTrip proves the durable-store integration end to end:
// a campaign run saves its prepared dataset as a named table, recomputing the
// campaign is bit-identical to re-reading the saved table, a selective scan
// skips zone-mapped segments, and a later campaign whose target table exists
// only in the store falls back to scanning it.
func TestResultStoreRoundTrip(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	// Small segments so the 400-row result splits into enough segments for
	// zone-map pruning to be observable.
	st, err := store.Open(t.TempDir(), store.WithSegmentRows(64), store.WithFrameRows(32))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := New(env.data, WithResultStore(st), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	env.runner = r

	campaign := churnCampaign()
	report := env.compileAndRun(t, campaign)
	name := ResultTableName(campaign.Name)
	if report.Details["store.table"] != name {
		t.Fatalf("store.table detail = %q, want %q", report.Details["store.table"], name)
	}
	first, err := st.Rows(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != report.RowsProcessed {
		t.Fatalf("saved %d rows, report processed %d", len(first), report.RowsProcessed)
	}

	// Recompute arm: an identical second run replaces the saved table; the
	// re-read must reproduce the first run's prepared rows exactly.
	env.compileAndRun(t, campaign)
	second, err := st.Rows(name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-read of saved table differs from recompute")
	}

	// Selective scan: a predicate touching only the top of the customer_id
	// range must prune segments through the zone maps.
	schema, err := st.Schema(name)
	if err != nil {
		t.Fatal(err)
	}
	idx := schema.IndexOf("customer_id")
	maxID := int64(-1)
	for _, row := range first {
		if v := row[idx].(int64); v > maxID {
			maxID = v
		}
	}
	pred, err := store.ParsePred(fmt.Sprintf("customer_id >= %d", maxID), schema)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := st.Scan(name, store.Filter{pred}, func(*storage.ColumnBatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsSkipped == 0 {
		t.Fatalf("selective scan skipped no segments: %+v", stats)
	}
	if snap := st.Metrics().Snapshot(); snap.CounterValue("store.segments.skipped") == 0 {
		t.Fatal("store.segments.skipped counter not incremented")
	}

	// Fallback: a campaign targeting a table that exists only in the store
	// still compiles and runs — both the compiler's source resolution and the
	// runner's table lookup read the saved segments instead of the catalog.
	compiler, err := core.NewCompiler(env.data, core.WithDurableStore(st))
	if err != nil {
		t.Fatal(err)
	}
	env.compiler = compiler
	followUp := churnCampaign()
	followUp.Name = "churn-from-store"
	followUp.Goal.TargetTable = name
	followUp.Sources = []model.DataSource{{Table: name, ContainsPersonalData: true, Region: "eu"}}
	report2 := env.compileAndRun(t, followUp)
	if report2.RowsProcessed == 0 {
		t.Fatal("follow-up campaign processed no rows from the stored table")
	}
	if !st.Has(ResultTableName(followUp.Name)) {
		t.Fatal("follow-up campaign result not saved under its own name")
	}
}

// TestCompileResolvesSourcesOnce re-saves a store-backed source table with a
// changing row count while a campaign over it compiles: every compile must
// report the source row count its alternatives were bound to, because source
// resolution happens once per compile.
func TestCompileResolvesSourcesOnce(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src, err := env.data.Lookup("telco_customers")
	if err != nil {
		t.Fatal(err)
	}
	rows := src.Rows()
	const table = "results/source"
	if err := st.SaveRows(table, src.Schema(), rows); err != nil {
		t.Fatal(err)
	}
	compiler, err := core.NewCompiler(env.data, core.WithDurableStore(st))
	if err != nil {
		t.Fatal(err)
	}
	campaign := churnCampaign()
	campaign.Goal.TargetTable = table
	campaign.Sources = []model.DataSource{{Table: table, ContainsPersonalData: true, Region: "eu"}}

	stop := make(chan struct{})
	saved := make(chan error, 1)
	go func() {
		defer close(saved)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := len(rows) - i%len(rows)
			if err := st.SaveRows(table, src.Schema(), rows[:n]); err != nil {
				saved <- err
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		res, err := compiler.Compile(campaign)
		if err != nil {
			close(stop)
			t.Fatal(err)
		}
		for _, alt := range res.Alternatives {
			if alt.Plan.InputRows != res.SourceRows {
				t.Errorf("compile %d: alternative %d bound to %d rows, result reports %d source rows",
					i, alt.Index, alt.Plan.InputRows, res.SourceRows)
			}
		}
	}
	close(stop)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
}
