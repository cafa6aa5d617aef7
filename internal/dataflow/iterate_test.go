package dataflow

// iterate_test.go covers the Iterate plan node: fixpoint/keys/epsilon
// convergence, the max-iteration bound and ErrNotConverged, delta-aware
// short-circuiting of unchanged partitions, bit-identity of the budgeted
// (spilling) loop state against the in-memory run, equivalence across
// execution modes, and the spill-store lifecycle under cancellation.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

func iterEngine(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
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

var reachStateSchema = storage.MustSchema(
	storage.Field{Name: "node", Type: storage.TypeInt},
	storage.Field{Name: "label", Type: storage.TypeInt},
)

// reachabilityPlan builds min-label propagation over a chain graph with a few
// shortcuts: every node starts labelled with its own id, and each pass pushes
// labels along edges and keeps the per-node minimum. The fixpoint labels every
// node reachable from node 0 with 0.
func reachabilityPlan(nodes int, parts int) *Dataset {
	edgeSchema := storage.MustSchema(
		storage.Field{Name: "src", Type: storage.TypeInt},
		storage.Field{Name: "dst", Type: storage.TypeInt},
	)
	var edgeRows []storage.Row
	for i := 0; i+1 < nodes; i++ {
		edgeRows = append(edgeRows, storage.Row{int64(i), int64(i + 1)})
	}
	for i := 0; i+3 < nodes; i += 3 {
		edgeRows = append(edgeRows, storage.Row{int64(i), int64(i + 3)})
	}
	edges := FromRows("edges", edgeSchema, edgeRows, 2)

	state := make([]storage.Row, nodes)
	for i := range state {
		state[i] = storage.Row{int64(i), int64(i)}
	}
	return FromRows("labels", reachStateSchema, state, parts).
		Iterate(func(loop *Dataset) *Dataset {
			prop := loop.Join(edges, "node", "src", InnerJoin).
				Map("propagate", reachStateSchema, func(r Record) (storage.Row, error) {
					return storage.Row{r.Int("dst"), r.Int("label")}, nil
				})
			return loop.Union(prop).
				GroupBy("node").Agg(Min("label")).
				Map("to-state", reachStateSchema, func(r Record) (storage.Row, error) {
					return storage.Row{r.Int("node"), r.Int("min_label")}, nil
				}).
				Sort(SortOrder{Column: "node"})
		})
}

func TestIterateFixpointReachability(t *testing.T) {
	plan := reachabilityPlan(12, 3)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := iterEngine(t).Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].(int64) != int64(i) || row[1].(int64) != 0 {
			t.Fatalf("row %d = %v, want [%d 0]", i, row, i)
		}
	}
	if !res.Stats.IterateConverged {
		t.Error("reachability must reach its fixpoint")
	}
	if res.Stats.IterateLoops != 1 {
		t.Errorf("IterateLoops = %d, want 1", res.Stats.IterateLoops)
	}
	// A 12-node chain with every-third shortcuts needs several propagation
	// passes plus the fixpoint-confirming pass, and must stop well before the
	// default bound.
	if res.Stats.IterateIterations < 3 || res.Stats.IterateIterations >= DefaultMaxIterations {
		t.Errorf("IterateIterations = %d, want a handful", res.Stats.IterateIterations)
	}
	if res.Stats.IterateDeltaRows == 0 {
		t.Error("propagation passes must report changed rows")
	}
}

// TestIterateEquivalenceAcrossModes runs the reachability loop under every
// engine arm of the equivalence suite — default, unfused, each strategy
// switch off and the two forced-spill arms — and demands bit-identical
// results that equal the reference interpreter's fixpoint. This pins the
// delta fast path and the budgeted loop-state staging against the plain
// semantics.
func TestIterateEquivalenceAcrossModes(t *testing.T) {
	ctx := context.Background()
	plan := reachabilityPlan(10, 4)
	want, err := refCollect(plan)
	if err != nil {
		t.Fatal(err)
	}
	engines := equivalenceEngines(t)
	results := map[string]*Result{}
	for mode, e := range engines {
		res, err := e.Collect(ctx, plan)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		results[mode] = res
	}
	base := results["default"]
	sameRowMultiset(t, "default vs reference", base.Rows, want)
	for mode, got := range results {
		if !reflect.DeepEqual(got.Rows, base.Rows) {
			t.Errorf("%s rows diverge from the default:\n got %v\nwant %v", mode, got.Rows, base.Rows)
		}
		if got.Stats.IterateIterations != base.Stats.IterateIterations {
			t.Errorf("%s iterations = %d, default = %d", mode,
				got.Stats.IterateIterations, base.Stats.IterateIterations)
		}
		if !got.Stats.IterateConverged {
			t.Errorf("%s did not converge", mode)
		}
	}
}

// saturatingPlan builds a partition-local loop: each row counts up by one
// until it reaches its cap, caps differing per partition so some partitions
// saturate (and stop changing) several passes before the others. The body is
// one narrow Map over the loop state — exactly the shape the delta-aware
// short-circuit targets.
func saturatingPlan(parts int) *Dataset {
	schema := storage.MustSchema(
		storage.Field{Name: "v", Type: storage.TypeInt},
		storage.Field{Name: "cap", Type: storage.TypeInt},
	)
	var rows []storage.Row
	for i := 0; i < 60; i++ {
		// FromRows deals rows round-robin, so i%parts is the partition; caps
		// grow with the partition index to stagger saturation.
		cap := int64(2 + 4*(i%parts))
		rows = append(rows, storage.Row{int64(0), cap})
	}
	return FromRows("sat", schema, rows, parts).
		Iterate(func(loop *Dataset) *Dataset {
			return loop.Map("inc-to-cap", schema, func(r Record) (storage.Row, error) {
				v, cap := r.Int("v"), r.Int("cap")
				if v < cap {
					v++
				}
				return storage.Row{v, cap}, nil
			})
		})
}

func TestIterateDeltaShortCircuitAndBudgetedBitIdentity(t *testing.T) {
	ctx := context.Background()
	plan := saturatingPlan(3)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}

	plain, err := iterEngine(t).Collect(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := iterEngine(t, WithMemoryBudget(1)).Collect(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}

	for _, res := range []*Result{plain, budgeted} {
		for i, row := range res.Rows {
			if row[0].(int64) != row[1].(int64) {
				t.Fatalf("row %d = %v, want v saturated at cap", i, row)
			}
		}
		if !res.Stats.IterateConverged {
			t.Fatal("saturating loop must converge")
		}
		// Partition 0 saturates at cap=2 while partition 2 runs to cap=10:
		// the passes in between must have carried partition 0 (and later 1)
		// over without re-executing the chain.
		if res.Stats.IterateShortCircuitPartitions == 0 {
			t.Errorf("no partitions short-circuited: %+v", res.Stats)
		}
	}
	if !reflect.DeepEqual(plain.Rows, budgeted.Rows) {
		t.Errorf("budgeted loop state diverges from in-memory run:\n got %v\nwant %v",
			budgeted.Rows, plain.Rows)
	}
	if plain.Stats.IterateIterations != budgeted.Stats.IterateIterations {
		t.Errorf("iterations diverge: plain %d, budgeted %d",
			plain.Stats.IterateIterations, budgeted.Stats.IterateIterations)
	}
	if budgeted.Stats.SpilledBatches == 0 {
		t.Error("one-byte budget must stage loop state through the spill store")
	}
}

func TestIterateStopsAtBound(t *testing.T) {
	ctx := context.Background()
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeInt})
	rows := []storage.Row{{int64(0)}, {int64(10)}}
	body := func(loop *Dataset) *Dataset {
		return loop.Map("inc", schema, func(r Record) (storage.Row, error) {
			return storage.Row{r.Int("v") + 1}, nil
		})
	}

	res, err := iterEngine(t).Collect(ctx,
		FromRows("nc", schema, rows, 1).Iterate(body, WithMaxIterations(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IterateIterations != 5 {
		t.Errorf("IterateIterations = %d, want exactly the bound 5", res.Stats.IterateIterations)
	}
	if res.Stats.IterateConverged {
		t.Error("incrementing loop must not report convergence")
	}
	for i, row := range res.Rows {
		if want := rows[i][0].(int64) + 5; row[0].(int64) != want {
			t.Errorf("row %d = %v, want %d after 5 passes", i, row, want)
		}
	}

	_, err = iterEngine(t).Collect(ctx,
		FromRows("nc", schema, rows, 1).Iterate(body, WithMaxIterations(5), WithRequireConvergence()))
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("WithRequireConvergence error = %v, want ErrNotConverged", err)
	}
}

func TestIterateConvergenceKeys(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	rows := []storage.Row{{int64(1), 8.0}, {int64(2), 16.0}}
	plan := FromRows("keys", schema, rows, 1).
		Iterate(func(loop *Dataset) *Dataset {
			return loop.Map("halve", schema, func(r Record) (storage.Row, error) {
				return storage.Row{r.Int("k"), r.Float("v") / 2}, nil
			})
		}, WithConvergenceKeys("k"))
	res, err := iterEngine(t).Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// The key set never changes, so the keys predicate converges after the
	// first pass even though the values keep moving.
	if res.Stats.IterateIterations != 1 || !res.Stats.IterateConverged {
		t.Fatalf("keys convergence stats = %+v, want 1 converged iteration", res.Stats)
	}
	if res.Rows[0][1].(float64) != 4.0 || res.Rows[1][1].(float64) != 8.0 {
		t.Errorf("rows = %v, want values halved exactly once", res.Rows)
	}
}

func TestIterateEpsilon(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeFloat})
	rows := []storage.Row{{0.0}, {64.0}}
	plan := FromRows("eps", schema, rows, 1).
		Iterate(func(loop *Dataset) *Dataset {
			// v -> (v+2)/2 contracts toward the fixed point v=2.
			return loop.Map("contract", schema, func(r Record) (storage.Row, error) {
				return storage.Row{(r.Float("v") + 2) / 2}, nil
			})
		}, WithEpsilon("v", 1e-9), WithRequireConvergence())
	res, err := iterEngine(t).Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.IterateConverged {
		t.Fatal("contraction must epsilon-converge")
	}
	for i, row := range res.Rows {
		if d := row[0].(float64) - 2; d > 1e-8 || d < -1e-8 {
			t.Errorf("row %d = %v, want ≈2", i, row)
		}
	}
}

func TestIterateValidation(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeInt})
	src := func() *Dataset { return FromRows("v", schema, []storage.Row{{int64(1)}}, 1) }
	identity := func(loop *Dataset) *Dataset { return loop }

	cases := []struct {
		name string
		plan *Dataset
		want error
	}{
		{"nil body", src().Iterate(nil), ErrBadPlan},
		{"zero max iterations", src().Iterate(identity, WithMaxIterations(0)), ErrBadPlan},
		{"unknown convergence key", src().Iterate(identity, WithConvergenceKeys("nope")), storage.ErrUnknownField},
		{"empty convergence keys", src().Iterate(identity, WithConvergenceKeys()), ErrBadPlan},
		{"negative epsilon", src().Iterate(identity, WithEpsilon("v", -1)), ErrBadPlan},
		{"unknown epsilon column", src().Iterate(identity, WithEpsilon("nope", 0.5)), storage.ErrUnknownField},
		{"schema-changing body", src().Iterate(func(loop *Dataset) *Dataset {
			return loop.WithColumn(storage.Field{Name: "extra", Type: storage.TypeInt},
				func(Record) (storage.Value, error) { return int64(0), nil })
		}), ErrIncompatible},
		{"failing body plan", src().Iterate(func(loop *Dataset) *Dataset {
			return loop.Project("nope")
		}), storage.ErrUnknownField},
	}
	for _, tc := range cases {
		if err := tc.plan.Err(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A non-float epsilon column is rejected even though it exists.
	strSchema := storage.MustSchema(storage.Field{Name: "s", Type: storage.TypeString})
	p := FromRows("s", strSchema, []storage.Row{{"a"}}, 1).
		Iterate(identity, WithEpsilon("s", 0.5))
	if err := p.Err(); !errors.Is(err, ErrBadPlan) {
		t.Errorf("string epsilon column: err = %v, want ErrBadPlan", err)
	}
}

// TestIterateCancelReleasesSpill cancels a budgeted iterate mid-loop, after
// the loop state has been staged through a spill store at least once: the
// deferred store release must remove every temp file, and no engine
// goroutines may linger.
func TestIterateCancelReleasesSpill(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := runtime.NumGoroutine()

	schema := storage.MustSchema(
		storage.Field{Name: "v", Type: storage.TypeInt},
		storage.Field{Name: "pad", Type: storage.TypeString},
	)
	rows := make([]storage.Row, 500)
	rng := rand.New(rand.NewSource(7))
	for i := range rows {
		rows[i] = storage.Row{int64(0), fmt.Sprintf("pad-%04d", rng.Intn(10_000))}
	}

	e := iterEngine(t, WithMemoryBudget(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The filter cancels during the second pass over the loop state, after
	// the first pass's output was staged (and spilled) between iterations.
	passThrough := cancelAfterRows(int64(len(rows))+100, cancel)
	plan := FromRows("loop", schema, rows, 4).
		Iterate(func(loop *Dataset) *Dataset {
			return loop.
				Filter("cancel mid-loop", passThrough).
				Map("inc", schema, func(r Record) (storage.Row, error) {
					return storage.Row{r.Int("v") + 1, r.String("pad")}, nil
				})
		})
	if _, err := e.Collect(ctx, plan); err == nil {
		t.Fatal("cancelled budgeted iterate must fail")
	}
	waitGoroutines(t, base)
	if left := spillFiles(t, tmp); len(left) != 0 {
		t.Errorf("cancelled iterate leaked spill files: %v", left)
	}

	// Control: the same loop bounded to a few passes completes, spills, and
	// still leaves the temp directory empty.
	res, err := iterEngine(t, WithMemoryBudget(1)).Collect(context.Background(),
		FromRows("loop", schema, rows, 4).Iterate(func(loop *Dataset) *Dataset {
			return loop.Map("inc", schema, func(r Record) (storage.Row, error) {
				return storage.Row{r.Int("v") + 1, r.String("pad")}, nil
			})
		}, WithMaxIterations(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBatches == 0 {
		t.Fatal("control loop must actually spill for the leak check to mean anything")
	}
	if left := spillFiles(t, tmp); len(left) != 0 {
		t.Errorf("completed budgeted iterate left spill files: %v", left)
	}
}

// TestIterateMetricsRegistered checks the engine-level iterate counters fold
// the per-run stats into the metrics registry.
func TestIterateMetricsRegistered(t *testing.T) {
	e := iterEngine(t)
	if _, err := e.Collect(context.Background(), saturatingPlan(3)); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics().Snapshot()
	if snap.CounterValue("iterate.iterations") == 0 {
		t.Error("iterate.iterations counter not folded")
	}
	if snap.CounterValue("iterate.shortcircuit.partitions") == 0 {
		t.Error("iterate.shortcircuit.partitions counter not folded")
	}
	if snap.CounterValue("iterate.delta.rows") == 0 {
		t.Error("iterate.delta.rows counter not folded")
	}
}
