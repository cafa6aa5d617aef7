package dataflow

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// nullableDataset is a plan over every column type with nulls in each
// column, NaN, -0.0 and 0.0 floats, and negative ints and times.
func nullableDataset(t *testing.T) *Dataset {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "i", Type: storage.TypeInt, Nullable: true},
		storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "s", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "b", Type: storage.TypeBool, Nullable: true},
		storage.Field{Name: "ts", Type: storage.TypeTime, Nullable: true},
	)
	rows := []storage.Row{
		{int64(1), 1.5, "a", true, int64(1_700_000_000_000)},
		{nil, nil, nil, nil, nil},
		{int64(-7), math.NaN(), "", false, int64(-5)},
		{int64(0), math.Copysign(0, -1), "12", nil, int64(0)},
		{int64(math.MaxInt64), 0.0, "true", true, nil},
		{nil, math.Inf(-1), "3.25", false, int64(42)},
		{int64(42), 1e21, nil, true, int64(7)},
	}
	d := FromRows("nullable", schema, rows, 3)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// A narrow operator between source and action, so the output batches
	// are produced by the engine rather than handed through.
	return d.Filter("all", func(Record) (bool, error) { return true, nil })
}

// sameValue compares boxed values, floats by their bits.
func sameValue(a, b storage.Value) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

func TestCollectBatchesMatchesCollect(t *testing.T) {
	e := testEngine(t)
	plan := nullableDataset(t)
	boxed, err := e.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	batchOnly, err := e.CollectBatches(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if batchOnly.Rows != nil {
		t.Fatalf("CollectBatches boxed %d rows", len(batchOnly.Rows))
	}
	if batchOnly.Len() != boxed.Len() || boxed.Len() != len(boxed.Rows) || boxed.Len() != 7 {
		t.Fatalf("Len = %d (batches) / %d (Collect), rows = %d, want 7", batchOnly.Len(), boxed.Len(), len(boxed.Rows))
	}
	if batchOnly.Stats.RowsOutput != boxed.Stats.RowsOutput || batchOnly.Stats.Batches != boxed.Stats.Batches {
		t.Errorf("stats differ: %+v vs %+v", batchOnly.Stats, boxed.Stats)
	}

	// Row-backed records over Collect's rows are the reference semantics
	// (storage.As* conversions of the boxed values).
	rowOnly := &Result{Schema: boxed.Schema, Rows: boxed.Rows}
	want := rowOnly.Records()
	for name, res := range map[string]*Result{"CollectBatches": batchOnly, "Collect": boxed} {
		got := res.Records()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for r := range want {
			if !reflect.DeepEqual(fmtRow(got[r].Row()), fmtRow(want[r].Row())) {
				t.Errorf("%s: row %d = %v, want %v", name, r, got[r].Row(), want[r].Row())
			}
			for c, f := range boxed.Schema.Fields() {
				g, w := got[r], want[r]
				if !sameValue(g.Value(f.Name), w.Value(f.Name)) || !sameValue(g.ValueAt(c), w.ValueAt(c)) {
					t.Errorf("%s: row %d %s: Value = %v, want %v", name, r, f.Name, g.Value(f.Name), w.Value(f.Name))
				}
				if g.String(f.Name) != w.String(f.Name) || g.StringAt(c) != storage.AsString(w.ValueAt(c)) {
					t.Errorf("%s: row %d %s: String = %q, want %q", name, r, f.Name, g.String(f.Name), w.String(f.Name))
				}
				if g.Int(f.Name) != w.Int(f.Name) || g.IntAt(c) != w.IntAt(c) {
					t.Errorf("%s: row %d %s: Int = %d, want %d", name, r, f.Name, g.Int(f.Name), w.Int(f.Name))
				}
				if math.Float64bits(g.Float(f.Name)) != math.Float64bits(w.Float(f.Name)) ||
					math.Float64bits(g.FloatAt(c)) != math.Float64bits(w.FloatAt(c)) {
					t.Errorf("%s: row %d %s: Float = %v, want %v", name, r, f.Name, g.Float(f.Name), w.Float(f.Name))
				}
				if g.Bool(f.Name) != w.Bool(f.Name) || g.BoolAt(c) != w.BoolAt(c) {
					t.Errorf("%s: row %d %s: Bool = %v, want %v", name, r, f.Name, g.Bool(f.Name), w.Bool(f.Name))
				}
				if g.IsNull(f.Name) != w.IsNull(f.Name) || g.IsNullAt(c) != w.IsNullAt(c) {
					t.Errorf("%s: row %d %s: IsNull = %v, want %v", name, r, f.Name, g.IsNull(f.Name), w.IsNull(f.Name))
				}
			}
			// Absent columns read as null on both backings.
			if g := got[r]; g.Value("missing") != nil || g.String("missing") != "" || !g.IsNullAt(-1) || g.FloatAt(99) != 0 {
				t.Errorf("%s: row %d: absent column reads as a value", name, r)
			}
		}
	}

	// -0.0 and 0.0 render differently, and NaN renders as "NaN".
	strs := map[string]bool{}
	for _, rec := range batchOnly.Records() {
		strs[rec.String("f")] = true
	}
	for _, s := range []string{"-0", "0", "NaN", "1.5", "-Inf", "1e+21", ""} {
		if !strs[s] {
			t.Errorf("float column renderings %v lack %q", strs, s)
		}
	}

	// Table boxes the batches when the result has no rows.
	fromBatches, err := batchOnly.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	fromRows, err := boxed.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if fromBatches.NumRows() != fromRows.NumRows() || !reflect.DeepEqual(fmtRows(fromBatches.Rows()), fmtRows(fromRows.Rows())) {
		t.Errorf("Table of the batch-only result differs from Collect's")
	}
}

// fmtRow renders a row with floats as bit patterns, so NaN cells compare
// equal under reflect.DeepEqual.
func fmtRow(r storage.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		if f, ok := v.(float64); ok {
			out[i] = math.Float64bits(f)
		} else {
			out[i] = v
		}
	}
	return out
}

func fmtRows(rows []storage.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = fmtRow(r)
	}
	return out
}

func TestResultLenAndRecordsOnRowOnlyResult(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "x", Type: storage.TypeInt})
	res := &Result{Schema: schema, Rows: []storage.Row{{int64(3)}, {int64(4)}}}
	if res.Len() != 2 {
		t.Fatalf("Len = %d, want 2", res.Len())
	}
	recs := res.Records()
	if len(recs) != 2 || recs[1].Int("x") != 4 || recs[0].IntAt(0) != 3 {
		t.Errorf("records = %v", recs)
	}
	if (&Result{Schema: schema}).Len() != 0 || len((&Result{Schema: schema}).Records()) != 0 {
		t.Error("an empty result must have no records")
	}
}
