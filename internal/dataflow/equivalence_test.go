package dataflow

// equivalence_test.go is the randomized plan-equivalence suite: it generates
// random schemas (including nullable columns with real nulls), random rows
// and random operator chains, executes each plan under every engine arm —
// the default, each physical-strategy switch turned off, and two one-byte
// budget arms that force every wide-operator batch through the spill codec —
// and asserts every arm is bit-identical to the default, row for row, and
// equal to the reference interpreter (reference_test.go) as a multiset, in
// exact order when the plan ends in a Sort. Any divergence fails here with
// the generating seed in the test name.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// genSchema builds a random schema. Column 0 is always a non-nullable int and
// column 1 a nullable float, so every generated plan has a join/sort/filter
// key and a numeric aggregation target to work with.
func genSchema(rng *rand.Rand) *storage.Schema {
	types := []storage.FieldType{
		storage.TypeInt, storage.TypeFloat, storage.TypeString,
		storage.TypeBool, storage.TypeTime,
	}
	fields := []storage.Field{
		{Name: "c0", Type: storage.TypeInt},
		{Name: "c1", Type: storage.TypeFloat, Nullable: true},
	}
	for i := 2; i < 2+rng.Intn(4); i++ {
		fields = append(fields, storage.Field{
			Name:     fmt.Sprintf("c%d", i),
			Type:     types[rng.Intn(len(types))],
			Nullable: rng.Intn(2) == 0,
		})
	}
	return storage.MustSchema(fields...)
}

func genValue(rng *rand.Rand, f storage.Field) storage.Value {
	if f.Nullable && rng.Float64() < 0.2 {
		return nil
	}
	switch f.Type {
	case storage.TypeInt, storage.TypeTime:
		return int64(rng.Intn(400) - 100)
	case storage.TypeFloat:
		return float64(rng.Intn(2000)-1000) / 8
	case storage.TypeString:
		return fmt.Sprintf("s%02d", rng.Intn(40))
	case storage.TypeBool:
		return rng.Intn(2) == 0
	default:
		return nil
	}
}

func genRows(rng *rand.Rand, schema *storage.Schema, n int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		row := make(storage.Row, schema.Len())
		for c := range row {
			row[c] = genValue(rng, schema.Field(c))
		}
		rows[i] = row
	}
	return rows
}

// genChain appends 1..5 random narrow operators to d, then optionally one
// wide operator, returning the plan. Every closure is pure and deterministic.
func genChain(rng *rand.Rand, d *Dataset) *Dataset {
	ops := 1 + rng.Intn(5)
	for i := 0; i < ops; i++ {
		schema := d.Schema()
		switch rng.Intn(7) {
		case 0: // filter on a random column, via the typed accessors
			col := schema.Field(rng.Intn(schema.Len())).Name
			cut := float64(rng.Intn(100) - 50)
			d = d.Filter("f "+col, func(r Record) (bool, error) {
				return r.IsNull(col) || r.Float(col) >= cut, nil
			})
		case 1: // project a random non-empty prefix-shuffled subset
			names := schema.Names()
			rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
			d = d.Project(names[:1+rng.Intn(len(names))]...)
		case 2: // derived column from c0/whatever numeric is around
			src := schema.Field(rng.Intn(schema.Len())).Name
			name := fmt.Sprintf("d%d", i)
			d = d.WithColumn(storage.Field{Name: name, Type: storage.TypeFloat, Nullable: true},
				func(r Record) (storage.Value, error) {
					if r.IsNull(src) {
						return nil, nil
					}
					return r.Float(src)*3 + 1, nil
				})
		case 3: // map: rebuild the row through Record accessors (same schema)
			fields := schema.Fields()
			d = d.Map("identity-ish", schema, func(r Record) (storage.Row, error) {
				row := make(storage.Row, len(fields))
				for c, f := range fields {
					row[c] = r.Value(f.Name)
				}
				return row, nil
			})
		case 4: // flatmap: duplicate rows whose c-column is "large", drop none
			col := schema.Field(rng.Intn(schema.Len())).Name
			out := schema
			d = d.FlatMap("dup "+col, out, func(r Record) ([]storage.Row, error) {
				row := r.Row()
				if !r.IsNull(col) && r.Float(col) > 25 {
					return []storage.Row{row, row.Clone()}, nil
				}
				return []storage.Row{row}, nil
			})
		case 5:
			d = d.Sample(0.5+rng.Float64()/2, int64(rng.Intn(1000)))
		case 6: // rewrite a random column in place, keeping its type
			f := schema.Field(rng.Intn(schema.Len()))
			d = d.ReplaceColumn(f.Name, func(r Record) (storage.Value, error) {
				if r.IsNull(f.Name) {
					return nil, nil
				}
				switch f.Type {
				case storage.TypeInt, storage.TypeTime:
					return r.Int(f.Name)*2 - 7, nil
				case storage.TypeFloat:
					return -r.Float(f.Name), nil
				case storage.TypeString:
					return "r" + r.String(f.Name), nil
				default:
					return !r.Bool(f.Name), nil
				}
			})
		}
	}
	if rng.Intn(2) == 0 {
		d = d.Limit(rng.Intn(40))
	}
	// Terminal wide operator half the time, to prove the shuffle paths agree
	// with the reference. Group-by and sort need the key columns to have
	// survived any projections above.
	schema := d.Schema()
	hasKeys := schema.Has("c0") && schema.Has("c1")
	switch rng.Intn(6) {
	case 0:
		d = d.Distinct(schema.Field(rng.Intn(schema.Len())).Name)
	case 1:
		d = d.Distinct()
	case 2:
		if hasKeys {
			d = d.GroupBy("c0").Agg(Count(), Sum("c1"), Min("c1"), CountDistinct("c0"))
		}
	case 3:
		if hasKeys {
			d = d.Sort(SortOrder{Column: "c0"}, SortOrder{Column: "c1", Descending: true})
		}
	}
	return d
}

// fromUnevenBatches builds the FromBatches source over rows cut into batches
// of random, uneven sizes (empty ones included) and checks that it deals rows
// to partitions exactly as FromRows does.
func fromUnevenBatches(t *testing.T, rng *rand.Rand, schema *storage.Schema, rows []storage.Row, parts int) *Dataset {
	t.Helper()
	var batches []*storage.ColumnBatch
	for lo := 0; lo <= len(rows); {
		hi := min(lo+rng.Intn(70), len(rows))
		b, err := storage.BatchFromRows(schema, rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
		if hi == len(rows) {
			break
		}
		lo = hi
	}
	d := FromBatches("equiv", schema, batches, parts)
	if err := d.Err(); err != nil {
		t.Fatalf("FromBatches: %v", err)
	}
	got := d.node.(*sourceNode).batches
	want := FromRows("equiv", schema, rows, parts).node.(*sourceNode).batches
	if len(got) != len(want) {
		t.Fatalf("FromBatches made %d partitions, FromRows %d", len(got), len(want))
	}
	for p := range got {
		sameRowsInOrder(t, fmt.Sprintf("FromBatches partition %d", p), got[p].Rows(), want[p].Rows())
	}
	return d
}

// equivalenceArms lists the engine arms in a fixed order; "default" first.
var equivalenceArms = []string{
	"default", "unfused", "combine-off", "range-sort-off", "broadcast-off",
	"map-distinct-off", "spill", "spill-64k",
}

// midSpillBudget is the "spill-64k" arm's memory budget: large enough that
// some batches of a store stay resident while older ones spill, so resident
// and restored batches mix inside one partition store or run merge.
const midSpillBudget = 64 << 10

// equivalenceEngines builds every engine arm over identical fresh clusters
// (same seed, no failure injection). The "spill" arm runs the default engine
// with a one-byte memory budget, which forces every batch a wide operator
// accumulates straight to disk; "spill-64k" spills only past midSpillBudget.
// Restored batches must be bit-identical either way.
func equivalenceEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	build := func(opts ...EngineOption) *Engine {
		c, err := cluster.New(cluster.Uniform(2, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return map[string]*Engine{
		"default":          build(),
		"unfused":          build(WithFusion(false)),
		"combine-off":      build(WithMapSideCombine(false)),
		"range-sort-off":   build(WithRangeSort(false)),
		"broadcast-off":    build(WithBroadcastJoin(false)),
		"map-distinct-off": build(WithMapSideDistinct(false)),
		"spill":            build(WithMemoryBudget(1)),
		"spill-64k":        build(WithMemoryBudget(midSpillBudget)),
	}
}

// checkSpillAccounting asserts the spill counters' invariants for one run:
// spilled batches imply spilled bytes and a file high-water mark, and the
// physical bytes never exceed the logical (v1-equivalent) bytes, because a
// frame the codec cannot shrink is written in the v1 layout.
func checkSpillAccounting(t *testing.T, label string, s Stats) {
	t.Helper()
	if s.SpilledBatches > 0 && (s.SpilledBytes == 0 || s.SpillFilePeakBytes == 0) {
		t.Errorf("%s: %d spilled batches but %dB spilled, %dB file peak",
			label, s.SpilledBatches, s.SpilledBytes, s.SpillFilePeakBytes)
	}
	if s.SpilledBytes > s.SpillLogicalBytes {
		t.Errorf("%s: physical %dB exceeds logical %dB", label, s.SpilledBytes, s.SpillLogicalBytes)
	}
}

// sameRowsInOrder fails unless got equals want row for row.
func sameRowsInOrder(t *testing.T, label string, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %#v, want %#v", label, i, got[i], want[i])
		}
	}
}

// sameRowMultiset fails unless got and want hold the same rows, counting
// duplicates, in any order.
func sameRowMultiset(t *testing.T, label string, got, want []storage.Row) {
	t.Helper()
	sameRowsInOrder(t, label+" (as multiset)", canonicalOrder(got), canonicalOrder(want))
}

// canonicalOrder returns rows sorted by their reference key, a total order
// that is independent of the input order.
func canonicalOrder(rows []storage.Row) []storage.Row {
	if len(rows) == 0 {
		return nil
	}
	idx := make([]int, len(rows[0]))
	for i := range idx {
		idx[i] = i
	}
	out := append([]storage.Row(nil), rows...)
	slices.SortStableFunc(out, func(a, b storage.Row) int {
		return strings.Compare(refKey(a, idx), refKey(b, idx))
	})
	return out
}

// checkAgainstReference compares an engine result with the reference rows of
// plan: in order when the plan ends in a Sort, as a multiset otherwise.
func checkAgainstReference(t *testing.T, label string, plan *Dataset, got, want []storage.Row) {
	t.Helper()
	if _, sorted := plan.node.(*sortNode); sorted {
		sameRowsInOrder(t, label+" vs reference", got, want)
		return
	}
	sameRowMultiset(t, label+" vs reference", got, want)
}

func TestRandomizedPlanEquivalence(t *testing.T) {
	ctx := context.Background()
	var totalSpilled int64
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := genSchema(rng)
			rows := genRows(rng, schema, rng.Intn(300))
			parts := 1 + rng.Intn(5)
			src := FromRows("equiv", schema, rows, parts)
			if rng.Intn(2) == 0 {
				src = fromUnevenBatches(t, rng, schema, rows, parts)
			}
			plan := genChain(rng, src)
			if err := plan.Err(); err != nil {
				t.Fatalf("generated plan invalid: %v", err)
			}
			want, err := refCollect(plan)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}

			engines := equivalenceEngines(t)
			results := map[string]*Result{}
			for _, arm := range equivalenceArms {
				res, err := engines[arm].Collect(ctx, plan)
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				results[arm] = res
			}
			base := results["default"]
			for _, arm := range equivalenceArms {
				got := results[arm]
				if !got.Schema.Equal(plan.Schema()) {
					t.Fatalf("%s schema %s != plan schema %s", arm, got.Schema, plan.Schema())
				}
				sameRowsInOrder(t, arm+" vs default", got.Rows, base.Rows)
				checkAgainstReference(t, arm, plan, got.Rows, want)
				if got.Stats.RowsRead != int64(len(rows)) {
					t.Errorf("%s RowsRead = %d, want %d", arm, got.Stats.RowsRead, len(rows))
				}
				if got.Stats.RowsOutput != int64(len(want)) {
					t.Errorf("%s RowsOutput = %d, want %d", arm, got.Stats.RowsOutput, len(want))
				}
			}
			// Routing the buckets through the spill store must not change
			// what crosses the shuffle boundary.
			for _, arm := range []string{"spill", "spill-64k"} {
				if v, d := results[arm].Stats.ShuffledRows, base.Stats.ShuffledRows; v != d {
					t.Errorf("%s ShuffledRows = %d, default = %d", arm, v, d)
				}
				checkSpillAccounting(t, arm, results[arm].Stats)
			}
			totalSpilled += results["spill"].Stats.SpilledBatches
		})
	}
	// With a one-byte budget, any seed whose plan reaches a wide operator
	// must have spilled; across 40 seeds that must have happened.
	if totalSpilled == 0 {
		t.Error("spill mode never spilled a batch across the whole suite")
	}
}

// TestSampleUnfusedVectorizedEquivalence pins the unfused Sample routing:
// with the stage compiler off, a Sample-only stage runs as its own
// one-operator batch-kernel job and must keep the exact per-partition
// pseudo-random selection of the reference — same rows, same order, batches
// actually processed.
func TestSampleUnfusedVectorizedEquivalence(t *testing.T) {
	ctx := context.Background()
	for seed := int64(300); seed < 306; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := genSchema(rng)
			rows := genRows(rng, schema, 200+rng.Intn(400))
			plan := FromRows("sampleequiv", schema, rows, 1+rng.Intn(5)).
				Sample(0.25+rng.Float64()/2, seed)

			want, err := refCollect(plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := equivalenceEngines(t)["unfused"].Collect(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			sameRowsInOrder(t, "unfused sample vs reference", got.Rows, want)
			if got.Stats.Batches == 0 {
				t.Error("unfused Sample processed no batches")
			}
		})
	}
}

// TestMapFlatMapUnfusedVectorizedEquivalence pins the unfused Map/FlatMap
// routing: with the stage compiler off, a lone Map or FlatMap stage runs as
// its own one-operator batch-kernel job (closures reading zero-copy batch
// views, outputs appended into typed vectors) and must reproduce the
// reference exactly — same rows, same order.
func TestMapFlatMapUnfusedVectorizedEquivalence(t *testing.T) {
	ctx := context.Background()
	for seed := int64(400); seed < 406; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := genSchema(rng)
			rows := genRows(rng, schema, 200+rng.Intn(400))
			fields := schema.Fields()
			plan := FromRows("mapequiv", schema, rows, 1+rng.Intn(5)).
				Map("rebuild", schema, func(r Record) (storage.Row, error) {
					row := make(storage.Row, len(fields))
					for c, f := range fields {
						row[c] = r.Value(f.Name)
					}
					return row, nil
				}).
				FlatMap("dup-large", schema, func(r Record) ([]storage.Row, error) {
					row := r.Row()
					if !r.IsNull("c1") && r.Float("c1") > 25 {
						return []storage.Row{row, row.Clone()}, nil
					}
					return []storage.Row{row}, nil
				})

			want, err := refCollect(plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := equivalenceEngines(t)["unfused"].Collect(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			sameRowsInOrder(t, "unfused map/flatmap vs reference", got.Rows, want)
			if got.Stats.Batches == 0 {
				t.Error("unfused Map/FlatMap processed no batches")
			}
		})
	}
}

// TestSortEquivalenceHeavyDuplicates is the sort-focused arm of the suite:
// random multi-key sorts over schemas whose key columns carry heavy
// duplicates (and nulls), executed under every engine arm — range and
// single-task, in memory, as a forced external merge (one-byte budget) and
// under midSpillBudget, where the larger seeds' range-shuffle stores keep
// some batches resident and spill the rest.
// All must equal the reference's stable sort row for row — a unique id column
// makes any stability drift between the typed kernels and the loser-tree
// merge visible.
func TestSortEquivalenceHeavyDuplicates(t *testing.T) {
	ctx := context.Background()
	var externalRuns, midSpilled int64
	for seed := int64(100); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := storage.MustSchema(
				storage.Field{Name: "k", Type: storage.TypeInt, Nullable: true},
				storage.Field{Name: "g", Type: storage.TypeString},
				storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
				storage.Field{Name: "b", Type: storage.TypeBool},
				storage.Field{Name: "id", Type: storage.TypeInt},
			)
			n := 200 + rng.Intn(1800)
			rows := make([]storage.Row, n)
			for i := range rows {
				var k storage.Value
				if rng.Intn(8) > 0 {
					k = int64(rng.Intn(4)) // 4-value domain: ties everywhere
				}
				var f storage.Value
				if rng.Intn(10) > 0 {
					f = float64(rng.Intn(6)) / 2
				}
				rows[i] = storage.Row{
					k,
					fmt.Sprintf("g%d", rng.Intn(3)),
					f,
					rng.Intn(2) == 0,
					int64(i),
				}
			}
			orders := []SortOrder{
				{Column: "k"},
				{Column: "g", Descending: rng.Intn(2) == 0},
				{Column: "f", Descending: rng.Intn(2) == 0},
				{Column: "b"},
			}
			plan := FromRows("sortequiv", schema, rows, 1+rng.Intn(6)).Sort(orders...)

			want, err := refCollect(plan)
			if err != nil {
				t.Fatal(err)
			}
			engines := equivalenceEngines(t)
			base, err := engines["default"].Collect(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, arm := range equivalenceArms {
				got, err := engines[arm].Collect(ctx, plan)
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				sameRowsInOrder(t, arm+" vs reference", got.Rows, want)
				if got.Stats.ShuffledRows != base.Stats.ShuffledRows {
					t.Errorf("%s ShuffledRows = %d, default = %d", arm, got.Stats.ShuffledRows, base.Stats.ShuffledRows)
				}
				checkSpillAccounting(t, arm, got.Stats)
				switch arm {
				case "spill":
					externalRuns += got.Stats.SortRuns
					if got.Stats.SortRuns > 0 && got.Stats.SortMergedBatches == 0 {
						t.Error("external sort reported runs but no merged batches")
					}
				case "spill-64k":
					midSpilled += got.Stats.SpilledBatches
				}
			}
		})
	}
	if externalRuns == 0 {
		t.Error("the one-byte-budget arm never sorted through external runs across the suite")
	}
	if midSpilled == 0 {
		t.Error("the 64 KiB arm never spilled across the suite")
	}
}

// TestSortEquivalenceMixedRuns sorts one 9000-row partition in a single task
// under midSpillBudget, so the external sort cuts three runs: the two full
// SortChunkRows runs (about 177 KB each) spill, while the 808-row tail run
// (about 35 KB) stays resident. The loser-tree merge then mixes restored
// frames with a resident run and must still equal the reference's stable sort.
func TestSortEquivalenceMixedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt, Nullable: true},
		storage.Field{Name: "g", Type: storage.TypeString},
		storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "b", Type: storage.TypeBool},
		storage.Field{Name: "id", Type: storage.TypeInt},
	)
	rows := make([]storage.Row, 2*SortChunkRows+808)
	for i := range rows {
		var k storage.Value
		if rng.Intn(8) > 0 {
			k = int64(rng.Intn(16))
		}
		var f storage.Value
		if rng.Intn(10) > 0 {
			f = float64(rng.Intn(6)) / 2
		}
		rows[i] = storage.Row{k, fmt.Sprintf("g%d", rng.Intn(3)), f, rng.Intn(2) == 0, int64(i)}
	}
	plan := FromRows("mixedruns", schema, rows, 1).
		Sort(SortOrder{Column: "k"}, SortOrder{Column: "g", Descending: true}, SortOrder{Column: "f"})
	want, err := refCollect(plan)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, WithRangeSort(false), WithMemoryBudget(midSpillBudget))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	sameRowsInOrder(t, "mixed-runs sort vs reference", got.Rows, want)
	checkSpillAccounting(t, "mixed-runs sort", got.Stats)
	if got.Stats.SortRuns != 3 {
		t.Fatalf("SortRuns = %d, want 3", got.Stats.SortRuns)
	}
	// Every run spilled would write 4+4+1 frames of at most 1024 rows; the
	// resident tail run leaves 8.
	if got.Stats.SpilledBatches != 8 {
		t.Fatalf("SpilledBatches = %d, want 8 (two spilled runs, one resident)", got.Stats.SpilledBatches)
	}
}

// TestGroupByEquivalenceForcedSpill is the aggregation-focused arm of the
// suite: high-cardinality group-bys with every aggregation kind, run
// non-combined so rows cross the shuffle raw and the reduce side owns all
// group state. The in-memory hash aggregation, a one-byte-budget run that
// forces it to flush its group state through the spill sub-partitions every
// batch, and a midSpillBudget run that flushes only past 64 KiB must all
// equal the reference — in first-seen group order, which also pins the spill
// path's emission order. Float inputs are multiples of
// 1/8 so re-grouped partial sums stay exact.
func TestGroupByEquivalenceForcedSpill(t *testing.T) {
	ctx := context.Background()
	var spilledParts, midSpilled int64
	for seed := int64(200); seed < 210; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := storage.MustSchema(
				storage.Field{Name: "k", Type: storage.TypeInt},
				storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
				storage.Field{Name: "s", Type: storage.TypeString, Nullable: true},
			)
			keys := 1000 + rng.Intn(2000) // high cardinality: most groups are tiny
			n := 4000 + rng.Intn(4000)
			rows := make([]storage.Row, n)
			for i := range rows {
				var v storage.Value
				if rng.Intn(10) > 0 {
					v = float64(rng.Intn(2000)-1000) / 8
				}
				var s storage.Value
				if rng.Intn(12) > 0 {
					s = fmt.Sprintf("s%03d", rng.Intn(200))
				}
				rows[i] = storage.Row{int64(rng.Intn(keys)), v, s}
			}
			// Enough source partitions that every shuffle bucket receives its
			// rows across several batches: the spilling aggregation flushes at
			// batch granularity, so its resident peak is one epoch's groups,
			// not the bucket's.
			plan := FromRows("aggequiv", schema, rows, 6+rng.Intn(3)).
				GroupBy("k").
				Agg(Count(), Sum("v"), Avg("v"), Min("v"), Max("v"),
					Min("s"), Max("s"), StdDev("v"), CountDistinct("s"))

			build := func(opts ...EngineOption) *Engine {
				c, err := cluster.New(cluster.Uniform(2, 2, 0))
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(c, append([]EngineOption{WithMapSideCombine(false)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			engines := map[string]*Engine{
				"columnar": build(),
				// Group-state flushes re-spill through the spill codec: every
				// batch under the one-byte budget, only the overflow under
				// midSpillBudget.
				"spill":     build(WithMemoryBudget(1)),
				"spill-64k": build(WithMemoryBudget(midSpillBudget)),
			}
			want, err := refCollect(plan)
			if err != nil {
				t.Fatal(err)
			}
			results := map[string]*Result{}
			for _, arm := range []string{"columnar", "spill", "spill-64k"} {
				got, err := engines[arm].Collect(ctx, plan)
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				sameRowMultiset(t, arm+" vs reference", got.Rows, want)
				if base, ok := results["columnar"]; ok {
					sameRowsInOrder(t, arm+" vs columnar", got.Rows, base.Rows)
				}
				if got.Stats.AggGroups != int64(len(want)) {
					t.Errorf("%s AggGroups = %d, reference groups = %d", arm, got.Stats.AggGroups, len(want))
				}
				checkSpillAccounting(t, arm, got.Stats)
				results[arm] = got
			}
			spill, inMem := results["spill"], results["columnar"]
			if spill.Stats.AggSpilledPartitions == 0 {
				t.Error("one-byte budget never spilled aggregation state")
			}
			spilledParts += spill.Stats.AggSpilledPartitions
			midSpilled += results["spill-64k"].Stats.SpilledBatches
			// The sub-partitioned merge must hold strictly less state resident
			// than the whole bucket's groups would need: the in-memory run's
			// peak bounds it from above with a wide margin.
			if spill.Stats.AggPeakResidentBytes <= 0 {
				t.Error("spill run reported no aggregation peak")
			}
			if 2*spill.Stats.AggPeakResidentBytes > inMem.Stats.AggPeakResidentBytes {
				t.Errorf("spill peak %dB not bounded by half the in-memory peak %dB",
					spill.Stats.AggPeakResidentBytes, inMem.Stats.AggPeakResidentBytes)
			}
		})
	}
	if spilledParts == 0 {
		t.Error("forced-spill arm never merged a spill sub-partition across the suite")
	}
	if midSpilled == 0 {
		t.Error("the 64 KiB arm never spilled across the suite")
	}
}
