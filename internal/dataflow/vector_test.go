package dataflow

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// vectorChainPlan builds a kernel-heavy narrow chain: filter → project →
// with_column → filter over n rows.
func vectorChainPlan(t *testing.T, n, parts int) *Dataset {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
		storage.Field{Name: "tag", Type: storage.TypeString, Nullable: true},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		var tag storage.Value
		if i%3 != 0 {
			tag = "t"
		}
		rows[i] = storage.Row{int64(i % 50), float64(i%100) / 2, tag}
	}
	return FromRows("vec", schema, rows, parts).
		Filter("v >= 5", func(r Record) (bool, error) { return r.Float("v") >= 5, nil }).
		Project("k", "v").
		WithColumn(storage.Field{Name: "bucket", Type: storage.TypeInt},
			func(r Record) (storage.Value, error) { return r.Int("v") / 10, nil }).
		Filter("bucket < 4", func(r Record) (bool, error) { return r.Int("bucket") < 4, nil })
}

func TestVectorizedStatsAndMetrics(t *testing.T) {
	vec := testEngine(t)
	d := vectorChainPlan(t, 1000, 4).Distinct("k", "bucket")

	vres := collect(t, vec, d)
	if vres.Stats.Batches == 0 || vres.Stats.BatchRows == 0 {
		t.Errorf("run reported Batches=%d BatchRows=%d", vres.Stats.Batches, vres.Stats.BatchRows)
	}
	snap := vec.Metrics().Snapshot()
	if got := snap.CounterValue("batches"); got != vres.Stats.Batches {
		t.Errorf("batches counter = %d, want %d", got, vres.Stats.Batches)
	}
	if got := snap.CounterValue("batches.rows"); got != vres.Stats.BatchRows {
		t.Errorf("batches.rows counter = %d, want %d", got, vres.Stats.BatchRows)
	}
	want, err := refCollect(d)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, "distinct chain vs reference", vres.Rows, want)
}

func TestExplainNamesExecutionMode(t *testing.T) {
	d := vectorChainPlan(t, 100, 2)
	vec := testEngine(t)
	plan := vec.Explain(d)
	for _, want := range []string{"execution mode: vectorized (columnar batches)", "[vectorized]"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q:\n%s", want, plan)
		}
	}
	// Limit-capped chains run the same batch kernels over row ranges.
	if capped := vec.Explain(vectorChainPlan(t, 100, 2).Limit(5)); !strings.Contains(capped, "+Limit(5) [vectorized]") {
		t.Errorf("limit-capped chain must be tagged vectorized:\n%s", capped)
	}
	// Unfused: narrow operators run one batch-kernel job each.
	unfused := testEngineWith(t, WithFusion(false))
	if plan := unfused.Explain(d); !strings.Contains(plan, "execution mode: vectorized (per-operator batch kernels)") {
		t.Errorf("unfused Explain must name the per-operator kernel mode:\n%s", plan)
	}
}

// TestValidationGating pins that Map output validation is not gated: a
// closure that emits a mistyped row anywhere in a partition — first or late,
// fused, unfused or limit-capped — fails the action with a descriptive error,
// because unboxing into typed vectors is the validation.
func TestValidationGating(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "x", Type: storage.TypeInt})
	rows := make([]storage.Row, 10)
	for i := range rows {
		rows[i] = storage.Row{int64(i)}
	}
	bad := FromRows("vals", schema, rows, 1).
		Map("bad late row", schema, func(r Record) (storage.Row, error) {
			if r.Int("x") == 7 {
				return storage.Row{"not an int"}, nil
			}
			return storage.Row{r.Int("x")}, nil
		})
	ctx := context.Background()
	for name, e := range map[string]*Engine{"fused": testEngine(t), "unfused": testEngineWith(t, WithFusion(false))} {
		for plan, d := range map[string]*Dataset{"map": bad, "map+limit": bad.Limit(9)} {
			_, err := e.Collect(ctx, d)
			if err == nil {
				t.Errorf("%s %s: the mistyped row must be rejected", name, plan)
			} else if !strings.Contains(err.Error(), "map output") || !strings.Contains(err.Error(), "expects int, got string") {
				t.Errorf("%s %s: error = %v, want the map output type mismatch", name, plan, err)
			}
		}
	}
	// A limit that stops before the bad row never reads it.
	if _, err := testEngine(t).Collect(ctx, bad.Limit(7)); err != nil {
		t.Errorf("limit stopping before the bad row: %v", err)
	}
}

// TestVectorizedJoinMatchesRowJoin drives both join strategies and compares
// against the reference join, including left-join null extension.
func TestVectorizedJoinMatchesRowJoin(t *testing.T) {
	facts := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	dims := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	)
	factRows := make([]storage.Row, 200)
	for i := range factRows {
		factRows[i] = storage.Row{int64(i % 20), float64(i)}
	}
	dimRows := make([]storage.Row, 8)
	for i := range dimRows {
		dimRows[i] = storage.Row{int64(i), "dim"}
	}
	for _, kind := range []JoinType{InnerJoin, LeftJoin} {
		for _, opts := range [][]EngineOption{
			nil,                        // broadcast (dims under threshold)
			{WithBroadcastJoin(false)}, // shuffled hash join
		} {
			plan := FromRows("facts", facts, factRows, 4).
				Join(FromRows("dims", dims, dimRows, 2), "k", "k", kind)
			want, err := refCollect(plan)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, testEngineWith(t, opts...), plan)
			sameRowMultiset(t, fmt.Sprintf("kind=%v opts=%d", kind, len(opts)), got.Rows, want)
		}
	}
}

// TestCountSkipsMaterialization checks Count agrees with Collect without
// requiring row materialisation.
func TestCountSkipsMaterialization(t *testing.T) {
	e := testEngine(t)
	d := vectorChainPlan(t, 500, 4)
	res := collect(t, e, d)
	n, stats, err := e.CountStats(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(res.Rows)) {
		t.Errorf("Count = %d, Collect rows = %d", n, len(res.Rows))
	}
	if stats.Batches == 0 {
		t.Error("Count must report batch stats")
	}
}
