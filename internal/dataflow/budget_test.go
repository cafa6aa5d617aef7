package dataflow

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// budgetFacts builds a fact table whose group-by keys repeat within every
// partition, so the combined group-by emits far fewer partial groups than it
// reads rows, plus a dimension table on the same key.
func budgetFacts() (facts, dims *Dataset) {
	factSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
		storage.Field{Name: "tag", Type: storage.TypeString},
	)
	rows := make([]storage.Row, 6000)
	for i := range rows {
		rows[i] = storage.Row{int64(i % 700), float64(i%40) / 4, fmt.Sprintf("t%d", i%9)}
	}
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	)
	dimRows := make([]storage.Row, 500)
	for i := range dimRows {
		dimRows[i] = storage.Row{int64(i), fmt.Sprintf("d%d", i%13)}
	}
	return FromRows("facts", factSchema, rows, 4), FromRows("dims", dimSchema, dimRows, 2)
}

// TestBudgetCoversWideOperatorOutputs pins that a memory budget governs every
// operator downstream of another wide operator or a limit: the output of a
// combined group-by or a limit-capped stage feeds the next shuffle through
// the budgeted partition store, so under a one-byte budget the downstream
// operator itself spills (its plan spills more batches than the plan without
// it), and the result still equals the reference.
func TestBudgetCoversWideOperatorOutputs(t *testing.T) {
	ctx := context.Background()
	facts, dims := budgetFacts()
	grouped := facts.GroupBy("k").Agg(Count(), Sum("v"))
	limited := facts.Filter("v > 1", func(r Record) (bool, error) { return r.Float("v") > 1, nil }).Limit(4000)
	cases := []struct {
		name           string
		prefix, plan   *Dataset
		prefixCanSpill bool
	}{
		{"groupby-join", grouped, grouped.Join(dims, "k", "k", InnerJoin), true},
		{"groupby-distinct", grouped, grouped.Distinct(), true},
		{"limit-groupby", limited, limited.GroupBy("tag").Agg(Count(), Sum("v")), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := testEngineWith(t, WithMemoryBudget(1), WithBroadcastJoin(false))
			_, prefix, err := e.CountStats(ctx, c.prefix)
			if err != nil {
				t.Fatal(err)
			}
			if !c.prefixCanSpill && prefix.SpilledBatches != 0 {
				t.Fatalf("narrow prefix spilled %d batches", prefix.SpilledBatches)
			}
			res, err := e.Collect(ctx, c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.SpilledBatches <= prefix.SpilledBatches {
				t.Errorf("downstream operator never spilled: plan spilled %d batches, its input alone %d",
					res.Stats.SpilledBatches, prefix.SpilledBatches)
			}
			want, err := refCollect(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			sameRowMultiset(t, c.name+" vs reference", res.Rows, want)
		})
	}
}

// TestBudgetCoversIterateGroupByState pins that the loop state of an Iterate
// whose body ends in a combined group-by is staged through the budgeted store
// between passes (and the body's own shuffle spills), so the loop spills
// under a one-byte budget and converges to the reference's fixpoint.
func TestBudgetCoversIterateGroupByState(t *testing.T) {
	ctx := context.Background()
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "n", Type: storage.TypeInt, Nullable: true},
	)
	rows := make([]storage.Row, 400)
	for i := range rows {
		rows[i] = storage.Row{int64(i % 50), int64(1)}
	}
	// Each pass halves the key space and counts the keys merged into each
	// survivor: the loop reaches the one-row fixpoint {0, 1} after a few
	// passes.
	plan := FromRows("halve", schema, rows, 4).Iterate(func(loop *Dataset) *Dataset {
		return loop.
			Map("halve", schema, func(r Record) (storage.Row, error) {
				return storage.Row{r.Int("k") / 2, int64(1)}, nil
			}).
			GroupBy("k").Agg(Count().Named("n"))
	}, WithMaxIterations(20))
	res, err := testEngineWith(t, WithMemoryBudget(1)).Collect(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBatches == 0 {
		t.Error("budgeted Iterate over a combined group-by never spilled")
	}
	if !res.Stats.IterateConverged {
		t.Error("loop did not converge")
	}
	want, err := refCollect(plan)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, "iterate vs reference", res.Rows, want)
}
