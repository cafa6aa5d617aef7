package analytics

// cluster_engine.go ports Lloyd's algorithm onto the dataflow engine's
// Iterate node. Each pass runs as named cluster jobs over columnar batches:
// the recompute step is a GroupBy(cluster)/Avg aggregation, the assignment
// step is a broadcast join of the points against the centroids with a
// vectorized distance column and a sort+distinct argmin. The hand-rolled
// KMeans in cluster.go is kept as the reference these fits are tested
// against (and fits the runner's K=1 baseline); both share
// the seeding and first-assignment code, and on the same seed they produce
// identical assignments and centroids (see TestEngineKMeansMatchesHandRolled)
// — the one divergence is a cluster that loses every point mid-iteration,
// where the hand arm keeps its last non-empty mean while the engine arm
// keeps the seeded centroid.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataflow"
	"repro/internal/storage"
)

// EngineKMeans clusters rows with the same Lloyd iteration as KMeans, but
// executes every assignment/recompute pass on a dataflow engine through an
// Iterate plan — so the passes get columnar kernels, spill budgets, metrics
// and cancellation for free.
type EngineKMeans struct {
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIterations bounds the total assignment passes (default 100),
	// counting the host-side seeding pass — the same bound KMeans.Fit
	// applies to its loop.
	MaxIterations int
	// Seed drives centroid initialisation, shared verbatim with KMeans.
	Seed int64
}

// EngineKMeansResult is the outcome of one engine-clustering fit.
type EngineKMeansResult struct {
	// Assignments holds the final cluster index of every input row.
	Assignments []int
	// Centroids are the fitted cluster centres, indexed by cluster.
	Centroids Matrix
	// Stats are the iterate action's execution statistics (iterations run,
	// delta rows, spill counters…). Zero when MaxIterations is 1 and no
	// engine loop ran.
	Stats dataflow.Stats
}

// Inertia returns the within-cluster sum of squared distances of x under the
// fitted centroids — the same computation KMeans.Inertia runs, so on matching
// centroids the two arms report identical inertia.
func (r *EngineKMeansResult) Inertia(x Matrix) float64 {
	km := &KMeans{K: len(r.Centroids), centroids: r.Centroids, fitted: true}
	total, _ := km.Inertia(x)
	return total
}

// kmeansFeatureColumns names the feature columns of the loop state.
func kmeansFeatureColumns(dims int) []string {
	cols := make([]string, dims)
	for j := range cols {
		cols[j] = fmt.Sprintf("f%d", j)
	}
	return cols
}

// kmeansStateSchema is the loop-carried state: one row per point, its feature
// vector, and its current cluster.
func kmeansStateSchema(dims int) *storage.Schema {
	fields := make([]storage.Field, 0, dims+2)
	fields = append(fields, storage.Field{Name: "id", Type: storage.TypeInt})
	for _, c := range kmeansFeatureColumns(dims) {
		fields = append(fields, storage.Field{Name: c, Type: storage.TypeFloat})
	}
	fields = append(fields, storage.Field{Name: "cluster", Type: storage.TypeInt})
	return storage.MustSchema(fields...)
}

// kmeansBody is one Lloyd pass as a dataflow sub-plan: recompute centroids
// from the current assignment, broadcast them against every point, score the
// distances, and keep each point's nearest centroid. The trailing sort by id
// restores the state's canonical order, which keeps the next pass's
// aggregation summing floats in exactly the order the hand-rolled recompute
// does — the bit-exactness contract with the hand-rolled reference.
func kmeansBody(dims int) func(loop *dataflow.Dataset) *dataflow.Dataset {
	featCols := kmeansFeatureColumns(dims)
	aggs := make([]dataflow.Aggregation, dims)
	avgCols := make([]string, dims)
	for j, c := range featCols {
		aggs[j] = dataflow.Avg(c)
		avgCols[j] = "avg_" + c
	}
	jk := storage.Field{Name: "jk", Type: storage.TypeInt}
	constKey := func(dataflow.Record) (storage.Value, error) { return int64(0), nil }
	return func(loop *dataflow.Dataset) *dataflow.Dataset {
		centroids := loop.GroupBy("cluster").Agg(aggs...).WithColumn(jk, constKey)
		scored := loop.WithColumn(jk, constKey).
			Join(centroids, "jk", "jk", dataflow.InnerJoin).
			// The distance replays euclidean()'s exact operation order, so
			// the scored distances are bit-identical to the hand-rolled
			// nearest() comparison.
			WithColumn(storage.Field{Name: "dist", Type: storage.TypeFloat},
				func(r dataflow.Record) (storage.Value, error) {
					sum := 0.0
					for j := range featCols {
						d := r.Float(featCols[j]) - r.Float(avgCols[j])
						sum += d * d
					}
					return math.Sqrt(sum), nil
				})
		// Argmin per point: order by (id, dist, centroid index) and keep the
		// first row per id. Bitwise-equal distances fall back to the lowest
		// cluster index — the same tie-break as nearest()'s strict "<" scan.
		return scored.
			Sort(dataflow.SortOrder{Column: "id"},
				dataflow.SortOrder{Column: "dist"},
				dataflow.SortOrder{Column: "right_cluster"}).
			Distinct("id").
			Map("kmeans-reassign", kmeansStateSchema(dims),
				func(r dataflow.Record) (storage.Row, error) {
					row := make(storage.Row, dims+2)
					row[0] = r.Int("id")
					for j, c := range featCols {
						row[j+1] = r.Float(c)
					}
					row[dims+1] = r.Int("right_cluster")
					return row, nil
				}).
			Sort(dataflow.SortOrder{Column: "id"})
	}
}

// compile validates the input, runs seeding plus the first assignment pass
// host-side (through the exact code path the hand-rolled arm uses, so both
// arms start identically), and returns the initial-state dataset together
// with the first assignments and the seeded model.
func (m *EngineKMeans) compile(x Matrix) (*dataflow.Dataset, []int, *KMeans, error) {
	if err := x.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if m.K < 1 {
		return nil, nil, nil, fmt.Errorf("%w: K=%d", ErrBadParameter, m.K)
	}
	rows, dims := x.Dims()
	if m.K > rows {
		return nil, nil, nil, fmt.Errorf("%w: K=%d exceeds %d rows", ErrBadParameter, m.K, rows)
	}
	seed := &KMeans{K: m.K}
	rng := rand.New(rand.NewSource(m.Seed))
	seed.centroids = seed.initCentroids(x, rng)
	seed.fitted = true
	assign := make([]int, rows)
	state := make([]storage.Row, rows)
	schema := kmeansStateSchema(dims)
	for i, row := range x {
		assign[i] = seed.nearest(row)
		r := make(storage.Row, dims+2)
		r[0] = int64(i)
		for j, v := range row {
			r[j+1] = v
		}
		r[dims+1] = int64(assign[i])
		state[i] = r
	}
	// A single initial partition keeps the first pass's aggregation arrival
	// order identical to the hand-rolled recompute, which sums rows in input
	// order; every later pass re-sorts by id, re-establishing that order.
	return dataflow.FromRows("kmeans-state", schema, state, 1), assign, seed, nil
}

func (m *EngineKMeans) maxIterations() int {
	if m.MaxIterations <= 0 {
		return 100
	}
	return m.MaxIterations
}

// Plan returns the iterate plan Fit executes for x, without running it —
// the explain surface of engine clustering.
func (m *EngineKMeans) Plan(x Matrix) (*dataflow.Dataset, error) {
	ds, _, _, err := m.compile(x)
	if err != nil {
		return nil, err
	}
	_, dims := x.Dims()
	bodyIters := m.maxIterations() - 1
	if bodyIters < 1 {
		bodyIters = 1
	}
	plan := ds.Iterate(kmeansBody(dims), dataflow.WithMaxIterations(bodyIters))
	if err := plan.Err(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Fit clusters x on the engine and returns the assignments, centroids and
// the iterate action's stats. The engine's map-side combine is disabled for
// the fit (via Derive), because partial per-partition sums would re-associate
// the float additions the bit-exactness contract pins.
func (m *EngineKMeans) Fit(ctx context.Context, eng *dataflow.Engine, x Matrix) (*EngineKMeansResult, error) {
	if eng == nil {
		return nil, fmt.Errorf("%w: engine clustering needs an engine", ErrBadParameter)
	}
	ds, assign, seed, err := m.compile(x)
	if err != nil {
		return nil, err
	}
	_, dims := x.Dims()
	exact := eng.Derive(dataflow.WithMapSideCombine(false))

	var stats dataflow.Stats
	if bodyIters := m.maxIterations() - 1; bodyIters >= 1 {
		plan := ds.Iterate(kmeansBody(dims), dataflow.WithMaxIterations(bodyIters))
		res, err := exact.Collect(ctx, plan)
		if err != nil {
			return nil, err
		}
		stats = res.Stats
		for _, r := range res.Rows {
			assign[r[0].(int64)] = int(r[dims+1].(int64))
		}
		ds = dataflow.FromRows("kmeans-final", kmeansStateSchema(dims), res.Rows, 1)
	}

	// Final centroids: the same GroupBy/Avg the body runs, over the fitted
	// state in id order — the engine analogue of recomputeCentroids. A
	// cluster absent from the final assignment keeps its seeded centroid.
	aggs := make([]dataflow.Aggregation, dims)
	for j, c := range kmeansFeatureColumns(dims) {
		aggs[j] = dataflow.Avg(c)
	}
	centRes, err := exact.Collect(ctx, ds.GroupBy("cluster").Agg(aggs...))
	if err != nil {
		return nil, err
	}
	centroids := seed.centroids.Clone()
	for _, r := range centRes.Rows {
		c := make([]float64, dims)
		for j := range c {
			c[j] = r[j+1].(float64)
		}
		centroids[r[0].(int64)] = c
	}
	return &EngineKMeansResult{Assignments: assign, Centroids: centroids, Stats: stats}, nil
}
