package dataflow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Wide-operator tuning defaults.
const (
	// defaultBroadcastThreshold is the build-side row count under which a join
	// broadcasts the build side instead of shuffling both inputs.
	defaultBroadcastThreshold = 10_000
	// sortSamplesPerPartition is the number of rows sampled per output
	// partition to derive range-sort split points.
	sortSamplesPerPartition = 32
	// rangeSortMinRowsPerPartition is the minimum average partition size worth
	// a range shuffle; smaller inputs sort in a single task.
	rangeSortMinRowsPerPartition = 64
)

// SortChunkRows is the fixed chunk size of the external merge sort: under a
// memory budget each partition sorts SortChunkRows-row chunks into sorted
// runs that spill through the batch codec and merge back with a loser tree,
// so the sort's resident accumulation is bounded by runs × chunk instead of
// the partition size. Exported so the ablation benchmarks can state the
// bound they assert.
const SortChunkRows = 4096

// Engine compiles logical plans into tasks and executes them on a simulated
// cluster. Before execution the engine's stage compiler fuses maximal chains
// of narrow operators into single-job stages (see stage.go); wide operators
// remain shuffle boundaries, but each picks a physical strategy: sort range-
// partitions and sorts partitions in parallel, join broadcasts small build
// sides, distinct dedups map-side before shuffling. An Engine is safe for
// concurrent use.
type Engine struct {
	cluster           *cluster.Cluster
	reg               *metrics.Registry
	shufflePartitions int
	// fuse enables the stage compiler; disabled, every narrow operator runs
	// as its own cluster job (the pre-fusion baseline, kept for ablation).
	fuse bool
	// combine enables the map-side partial aggregation pass before group-by
	// shuffles.
	combine bool
	// rangeSort enables the range-partitioned parallel sort; disabled, sort
	// collapses into a single cluster task (the pre-overhaul baseline).
	rangeSort bool
	// broadcastJoin enables broadcasting build sides below
	// broadcastThreshold rows; disabled, every join shuffles both inputs.
	broadcastJoin      bool
	broadcastThreshold int
	// mapSideDistinct enables per-partition dedup before the distinct
	// shuffle, with the computed keys carried through it.
	mapSideDistinct bool
	// memoryBudget bounds the resident bytes of each wide operator's batch
	// accumulation (shuffle buckets, sort inputs, join build sides): batches
	// past the budget spill to temp files and are restored transparently on
	// read. <= 0 (the default) means unlimited — nothing ever spills.
	memoryBudget int64
	// spillDir places every spill temp file this engine creates ("" keeps
	// os.TempDir()).
	spillDir string
}

func countBatchRows(in []*storage.ColumnBatch) int {
	total := 0
	for _, b := range in {
		total += b.Len()
	}
	return total
}

// EngineOption configures engine construction.
type EngineOption func(*Engine)

// WithShufflePartitions sets the number of partitions produced by wide
// transformations (group-by, join, distinct). The default is the cluster's
// total slot count.
func WithShufflePartitions(n int) EngineOption {
	return func(e *Engine) {
		if n >= 1 {
			e.shufflePartitions = n
		}
	}
}

// WithFusion toggles the stage compiler (default on). With fusion off every
// narrow operator schedules its own cluster job and materialises its full
// output, which is the baseline the fused benchmarks compare against.
func WithFusion(enabled bool) EngineOption {
	return func(e *Engine) { e.fuse = enabled }
}

// WithMapSideCombine toggles partial aggregation before group-by shuffles
// (default on). With combining off every input row crosses the shuffle
// boundary.
func WithMapSideCombine(enabled bool) EngineOption {
	return func(e *Engine) { e.combine = enabled }
}

// WithRangeSort toggles the range-partitioned parallel sort (default on).
// With it off — or when the input is too small to be worth a shuffle — Sort
// runs as one global task, the pre-overhaul baseline kept for ablation.
func WithRangeSort(enabled bool) EngineOption {
	return func(e *Engine) { e.rangeSort = enabled }
}

// WithBroadcastJoin toggles the broadcast hash join strategy (default on).
// With it off every join shuffles both inputs regardless of size.
func WithBroadcastJoin(enabled bool) EngineOption {
	return func(e *Engine) { e.broadcastJoin = enabled }
}

// WithBroadcastThreshold sets the build-side row count at or under which a
// join broadcasts instead of shuffling (default 10000). Non-positive values
// are ignored; use WithBroadcastJoin(false) to disable broadcasting.
func WithBroadcastThreshold(rows int) EngineOption {
	return func(e *Engine) {
		if rows > 0 {
			e.broadcastThreshold = rows
		}
	}
}

// WithMapSideDistinct toggles per-partition dedup before the distinct shuffle
// (default on). With it off every input row crosses the shuffle boundary and
// is keyed again on the reduce side.
func WithMapSideDistinct(enabled bool) EngineOption {
	return func(e *Engine) { e.mapSideDistinct = enabled }
}

// WithMemoryBudget bounds the bytes of columnar batch data each wide
// operator keeps resident while accumulating (per partition store: one per
// shuffle side, sort input staging, or distinct survivor set). Once an
// accumulation exceeds the budget its coldest batches are spilled to temp
// files and restored transparently when the consuming tasks read them, so
// wide operators run within budget on inputs that exceed RAM. bytes <= 0 (the
// default) disables spilling.
func WithMemoryBudget(bytes int64) EngineOption {
	return func(e *Engine) { e.memoryBudget = bytes }
}

// WithSpillDir places every spill temp file the engine creates (shuffle
// gathers, sort runs, aggregation overflow, loop state) in dir instead of
// the system temp directory. "" (the default) keeps os.TempDir(); the
// directory must already exist.
func WithSpillDir(dir string) EngineOption {
	return func(e *Engine) { e.spillDir = dir }
}

// NewEngine returns an engine bound to the given cluster.
func NewEngine(c *cluster.Cluster, opts ...EngineOption) (*Engine, error) {
	if c == nil {
		return nil, fmt.Errorf("dataflow: engine requires a cluster")
	}
	e := &Engine{
		cluster:            c,
		reg:                metrics.NewRegistry(),
		shufflePartitions:  c.TotalSlots(),
		fuse:               true,
		combine:            true,
		rangeSort:          true,
		broadcastJoin:      true,
		broadcastThreshold: defaultBroadcastThreshold,
		mapSideDistinct:    true,
	}
	if e.shufflePartitions < 1 {
		e.shufflePartitions = 1
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Metrics exposes the engine's metric registry (rows read, shuffled, tasks…).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Derive returns a copy of the engine with the given options applied on top
// of this engine's configuration. The copy shares the cluster and the metrics
// registry, so derived engines are cheap and their executions fold into the
// same counters — the analytics layer uses this to run sub-plans that need a
// specific switch (e.g. map-side combine off for bit-exact float
// aggregation) without rebuilding the engine stack.
func (e *Engine) Derive(opts ...EngineOption) *Engine {
	ne := *e
	for _, opt := range opts {
		opt(&ne)
	}
	return &ne
}

// Stats summarises the execution of a single action.
type Stats struct {
	// RowsRead is the number of source rows scanned.
	RowsRead int64
	// RowsOutput is the number of rows in the action result.
	RowsOutput int64
	// ShuffledRows is the number of rows moved across shuffle boundaries.
	ShuffledRows int64
	// Tasks is the number of cluster tasks executed.
	Tasks int64
	// Stages is the number of shuffle stages (wide transformations) executed.
	Stages int64
	// FusedStages is the number of fused stages (two or more narrow
	// operators merged into one cluster job) executed.
	FusedStages int64
	// CombinedRows is the number of rows the map-side combine pass removed
	// from group-by shuffles (input rows minus shuffled partial groups).
	CombinedRows int64
	// BroadcastJoins is the number of joins executed with the broadcast-hash
	// strategy (build side at or under the threshold), shuffling zero rows.
	BroadcastJoins int64
	// SortSampledRows is the number of rows sampled to derive range-sort
	// split points.
	SortSampledRows int64
	// SortRuns is the number of sorted runs the external merge sort spilled
	// and merged. Zero when sorts ran in memory (no budget).
	SortRuns int64
	// SortMergedBatches is the number of output batches the external sort's
	// loser-tree merges emitted.
	SortMergedBatches int64
	// SortPeakResidentBytes is the largest resident footprint any single
	// partition's run store reached while sorting externally — the measured
	// side of the runs × chunk memory bound.
	SortPeakResidentBytes int64
	// AggGroups is the number of distinct groups group-by aggregations
	// emitted (summed across buckets and group-by operators).
	AggGroups int64
	// AggSpilledPartitions is the number of spill sub-partitions the
	// budget-bounded hash aggregation flushed overflowing group state into
	// and merged back. Zero when group state fit in memory.
	AggSpilledPartitions int64
	// AggPeakResidentBytes is the largest resident group-state footprint
	// (hash table plus accumulator vectors) any single aggregation task
	// reached — the measured side of the spilling hash-agg's memory bound.
	AggPeakResidentBytes int64
	// DistinctPrecombinedRows is the number of duplicate rows the map-side
	// dedup pass removed before distinct shuffles.
	DistinctPrecombinedRows int64
	// Batches is the number of columnar batches the action's operators
	// produced: source partitions, fused-stage outputs, shuffle chunks and
	// wide-operator outputs.
	Batches int64
	// BatchRows is the number of rows those batches carried.
	BatchRows int64
	// SpilledBatches is the number of columnar batches written to spill
	// files because a wide operator's accumulation exceeded the memory
	// budget. Zero without WithMemoryBudget.
	SpilledBatches int64
	// SpilledBytes is the cumulative physical bytes written to spill files —
	// the actual disk write traffic of the compressed spill frames.
	SpilledBytes int64
	// SpillLogicalBytes is the cumulative raw (v1-equivalent) size of the
	// same spilled batches: what SpilledBytes would have been without the
	// compressed codec. SpillLogicalBytes/SpilledBytes is the achieved
	// compression ratio; it is never below 1, because a frame the codec
	// cannot shrink is written in the v1 layout.
	SpillLogicalBytes int64
	// SpillFilePeakBytes is the largest on-disk size any single spill file
	// reached — the physical-disk high-water mark, as opposed to the
	// cumulative write traffic of SpilledBytes. Spill files are append-only,
	// so per store this is simply its final file size; across stores the
	// engine keeps the maximum.
	SpillFilePeakBytes int64
	// IterateLoops is the number of Iterate nodes the action executed.
	IterateLoops int64
	// IterateIterations is the total number of body passes Iterate nodes ran
	// (summed across loops; a loop that converges on its third pass adds 3).
	IterateIterations int64
	// IterateDeltaRows is the number of loop-state rows that lived in changed
	// partitions across all iterations — the rows delta detection actually had
	// to re-fingerprint as new. With delta detection off every output row of
	// every pass counts.
	IterateDeltaRows int64
	// IterateShortCircuitPartitions is the number of partition re-executions
	// delta detection skipped because the partition's input batch was
	// fingerprint-identical to the previous pass (partition-local bodies
	// only).
	IterateShortCircuitPartitions int64
	// IterateConverged reports whether every Iterate loop in the action
	// reached its convergence predicate before the max-iteration bound. False
	// when no Iterate node ran (check IterateLoops).
	IterateConverged bool
	// WallTime is the end-to-end execution time of the action.
	WallTime time.Duration
}

// Result is the materialised output of an action. Collect fills both Rows
// and Batches; CollectBatches fills only Batches.
type Result struct {
	Schema *storage.Schema
	// Rows is the boxed concatenation of Batches (nil from CollectBatches).
	Rows []storage.Row
	// Batches are the action's output partitions in columnar form.
	// Read-only: they may share storage with the plan's sources.
	Batches []*storage.ColumnBatch
	Stats   Stats
}

// Len returns the number of result rows.
func (r *Result) Len() int {
	if r.Batches != nil {
		return countBatchRows(r.Batches)
	}
	return len(r.Rows)
}

// Table converts the result into a named storage table.
func (r *Result) Table(name string, opts ...storage.TableOption) (*storage.Table, error) {
	t, err := storage.NewTable(name, r.Schema, opts...)
	if err != nil {
		return nil, err
	}
	rows := r.Rows
	if rows == nil {
		rows = boxRows(r.Batches)
	}
	if _, err := t.AppendAll(rows); err != nil {
		return nil, err
	}
	return t, nil
}

// Records wraps each result row for named access. When the result has
// batches, the records are zero-copy views over them; otherwise they wrap
// the boxed rows.
func (r *Result) Records() []Record {
	out := make([]Record, 0, r.Len())
	if r.Batches != nil {
		for _, b := range r.Batches {
			for i := 0; i < b.Len(); i++ {
				out = append(out, Record{schema: r.Schema, batch: b, idx: i})
			}
		}
		return out
	}
	for _, row := range r.Rows {
		out = append(out, Record{schema: r.Schema, row: row})
	}
	return out
}

// boxRows concatenates the batches' rows as boxed rows.
func boxRows(parts []*storage.ColumnBatch) []storage.Row {
	var rows []storage.Row
	if total := countBatchRows(parts); total > 0 {
		rows = make([]storage.Row, 0, total)
	}
	for _, b := range parts {
		rows = append(rows, b.Rows()...)
	}
	return rows
}

// execState carries mutable counters through one action execution.
type execState struct {
	mu    sync.Mutex
	stats Stats
	// loopState binds each loopSourceNode to the current iteration's state
	// partitions while its Iterate loop runs. Keyed on the node rather than
	// stored in it, so concurrent actions over the same plan never share
	// mutable state.
	loopState map[*loopSourceNode][]*storage.ColumnBatch
}

// bindLoop points the loop placeholder at the partitions the next body pass
// reads as its input.
func (s *execState) bindLoop(n *loopSourceNode, parts []*storage.ColumnBatch) {
	s.mu.Lock()
	if s.loopState == nil {
		s.loopState = make(map[*loopSourceNode][]*storage.ColumnBatch, 1)
	}
	s.loopState[n] = parts
	s.mu.Unlock()
}

func (s *execState) unbindLoop(n *loopSourceNode) {
	s.mu.Lock()
	delete(s.loopState, n)
	s.mu.Unlock()
}

func (s *execState) loopBinding(n *loopSourceNode) ([]*storage.ColumnBatch, bool) {
	s.mu.Lock()
	parts, ok := s.loopState[n]
	s.mu.Unlock()
	return parts, ok
}

func (s *execState) addRead(n int)     { s.mu.Lock(); s.stats.RowsRead += int64(n); s.mu.Unlock() }
func (s *execState) addShuffled(n int) { s.mu.Lock(); s.stats.ShuffledRows += int64(n); s.mu.Unlock() }
func (s *execState) addTasks(n int)    { s.mu.Lock(); s.stats.Tasks += int64(n); s.mu.Unlock() }
func (s *execState) addStage()         { s.mu.Lock(); s.stats.Stages++; s.mu.Unlock() }
func (s *execState) addFused()         { s.mu.Lock(); s.stats.FusedStages++; s.mu.Unlock() }
func (s *execState) addCombined(n int) { s.mu.Lock(); s.stats.CombinedRows += int64(n); s.mu.Unlock() }
func (s *execState) addBroadcast()     { s.mu.Lock(); s.stats.BroadcastJoins++; s.mu.Unlock() }
func (s *execState) addSampled(n int) {
	s.mu.Lock()
	s.stats.SortSampledRows += int64(n)
	s.mu.Unlock()
}
func (s *execState) addSortRuns(n int) {
	s.mu.Lock()
	s.stats.SortRuns += int64(n)
	s.mu.Unlock()
}
func (s *execState) addSortMerged(n int) {
	s.mu.Lock()
	s.stats.SortMergedBatches += int64(n)
	s.mu.Unlock()
}
func (s *execState) noteSortPeak(bytes int64) {
	s.mu.Lock()
	if bytes > s.stats.SortPeakResidentBytes {
		s.stats.SortPeakResidentBytes = bytes
	}
	s.mu.Unlock()
}
func (s *execState) addAggGroups(n int) {
	s.mu.Lock()
	s.stats.AggGroups += int64(n)
	s.mu.Unlock()
}
func (s *execState) addAggSpilledParts(n int) {
	s.mu.Lock()
	s.stats.AggSpilledPartitions += int64(n)
	s.mu.Unlock()
}
func (s *execState) noteAggPeak(bytes int64) {
	s.mu.Lock()
	if bytes > s.stats.AggPeakResidentBytes {
		s.stats.AggPeakResidentBytes = bytes
	}
	s.mu.Unlock()
}
func (s *execState) addPrecombined(n int) {
	s.mu.Lock()
	s.stats.DistinctPrecombinedRows += int64(n)
	s.mu.Unlock()
}
func (s *execState) addBatches(batches, rows int) {
	s.mu.Lock()
	s.stats.Batches += int64(batches)
	s.stats.BatchRows += int64(rows)
	s.mu.Unlock()
}

// noteIterate folds one Iterate loop's totals into the stats.
// IterateConverged is the conjunction across loops: one loop that exhausts
// its bound marks the whole action unconverged.
func (s *execState) noteIterate(iterations, deltaRows, shortCircuit int64, converged bool) {
	s.mu.Lock()
	if s.stats.IterateLoops == 0 {
		s.stats.IterateConverged = converged
	} else {
		s.stats.IterateConverged = s.stats.IterateConverged && converged
	}
	s.stats.IterateLoops++
	s.stats.IterateIterations += iterations
	s.stats.IterateDeltaRows += deltaRows
	s.stats.IterateShortCircuitPartitions += shortCircuit
	s.mu.Unlock()
}

// spillStore is what the engine's two spill stores (storage.PartitionStore
// and storage.RunStore) share: spill counters and a temp file to release.
type spillStore interface {
	SpilledBatches() int64
	SpilledBytes() int64
	SpilledLogicalBytes() int64
	FileBytes() int64
	Close() error
}

// releaseStore folds a spill store's counters into the stats and releases
// its spill file. Callers defer it as soon as the store exists, so temp files
// are cleaned up on every error path.
func (s *execState) releaseStore(store spillStore) {
	s.mu.Lock()
	s.stats.SpilledBatches += store.SpilledBatches()
	s.stats.SpilledBytes += store.SpilledBytes()
	s.stats.SpillLogicalBytes += store.SpilledLogicalBytes()
	s.stats.SpillFilePeakBytes = max(s.stats.SpillFilePeakBytes, store.FileBytes())
	s.mu.Unlock()
	_ = store.Close()
}

// execute runs the plan and returns the output partitions, with stats
// finalised and metrics recorded.
func (e *Engine) execute(ctx context.Context, d *Dataset) ([]*storage.ColumnBatch, *execState, error) {
	if d == nil {
		return nil, nil, ErrNoSource
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if err := validateWideColumns(d.node); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	st := &execState{}
	parts, err := e.eval(ctx, d.node, st)
	if err != nil {
		return nil, nil, err
	}
	st.stats.RowsOutput = int64(countBatchRows(parts))
	st.stats.WallTime = time.Since(start)

	e.reg.Counter("actions").Inc()
	e.reg.Counter("rows.read").Add(st.stats.RowsRead)
	e.reg.Counter("rows.output").Add(st.stats.RowsOutput)
	e.reg.Counter("rows.shuffled").Add(st.stats.ShuffledRows)
	e.reg.Counter("tasks").Add(st.stats.Tasks)
	e.reg.Counter("stages.fused").Add(st.stats.FusedStages)
	e.reg.Counter("shuffle.combined").Add(st.stats.CombinedRows)
	e.reg.Counter("joins.broadcast").Add(st.stats.BroadcastJoins)
	e.reg.Counter("sort.sampled").Add(st.stats.SortSampledRows)
	e.reg.Counter("sort.runs").Add(st.stats.SortRuns)
	e.reg.Counter("sort.merged.batches").Add(st.stats.SortMergedBatches)
	e.reg.Counter("agg.groups").Add(st.stats.AggGroups)
	e.reg.Counter("agg.spilled.partitions").Add(st.stats.AggSpilledPartitions)
	e.reg.Counter("distinct.precombined").Add(st.stats.DistinctPrecombinedRows)
	e.reg.Counter("batches").Add(st.stats.Batches)
	e.reg.Counter("batches.rows").Add(st.stats.BatchRows)
	e.reg.Counter("spill.batches").Add(st.stats.SpilledBatches)
	e.reg.Counter("spill.bytes").Add(st.stats.SpilledBytes)
	e.reg.Counter("spill.bytes.logical").Add(st.stats.SpillLogicalBytes)
	// Monotonic compression win: logical minus physical bytes. Divide the
	// logical counter by (logical - saved) for the cumulative ratio.
	e.reg.Counter("spill.bytes.saved").Add(st.stats.SpillLogicalBytes - st.stats.SpilledBytes)
	e.reg.Counter("iterate.iterations").Add(st.stats.IterateIterations)
	e.reg.Counter("iterate.delta.rows").Add(st.stats.IterateDeltaRows)
	e.reg.Counter("iterate.shortcircuit.partitions").Add(st.stats.IterateShortCircuitPartitions)
	e.reg.Timer("action.duration").ObserveDuration(st.stats.WallTime)
	return parts, st, nil
}

// Collect executes the plan and materialises every output row: it is
// CollectBatches plus the boxing of the output batches into Rows.
func (e *Engine) Collect(ctx context.Context, d *Dataset) (*Result, error) {
	res, err := e.CollectBatches(ctx, d)
	if err != nil {
		return nil, err
	}
	res.Rows = boxRows(res.Batches)
	return res, nil
}

// CollectBatches executes the plan and returns its output partitions as
// column batches, without boxing any row: the result's Rows is nil.
func (e *Engine) CollectBatches(ctx context.Context, d *Dataset) (*Result, error) {
	parts, st, err := e.execute(ctx, d)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: d.Schema(), Batches: parts, Stats: st.stats}, nil
}

// Count executes the plan and returns the number of output rows without
// materialising them: output partitions are only counted, never converted to
// boxed rows.
func (e *Engine) Count(ctx context.Context, d *Dataset) (int64, error) {
	_, st, err := e.execute(ctx, d)
	if err != nil {
		return 0, err
	}
	return st.stats.RowsOutput, nil
}

// CountStats is Count plus the execution statistics of the action.
func (e *Engine) CountStats(ctx context.Context, d *Dataset) (int64, Stats, error) {
	_, st, err := e.execute(ctx, d)
	if err != nil {
		return 0, Stats{}, err
	}
	return st.stats.RowsOutput, st.stats, nil
}

// validateWideColumns walks the plan and verifies that every column a wide
// operator keys on exists in its input schema. The Dataset builders already
// reject unknown columns, but plans assembled through other paths used to
// reach the executor and panic with an index of -1 mid-task; validating the
// whole tree up front turns that into a descriptive error before any task is
// scheduled.
func validateWideColumns(node planNode) error {
	if node == nil {
		return fmt.Errorf("%w: nil plan node", ErrBadPlan)
	}
	requireAll := func(op string, in *storage.Schema, cols []string) error {
		for _, c := range cols {
			if in.IndexOf(c) < 0 {
				return fmt.Errorf("dataflow: %s: %w: column %q not in input schema %s",
					op, storage.ErrUnknownField, c, in)
			}
		}
		return nil
	}
	switch n := node.(type) {
	case *sortNode:
		cols := make([]string, len(n.orders))
		for i, o := range n.orders {
			cols[i] = o.Column
		}
		if err := requireAll("sort", n.child.schema(), cols); err != nil {
			return err
		}
	case *distinctNode:
		if err := requireAll("distinct", n.child.schema(), n.cols); err != nil {
			return err
		}
	case *groupByNode:
		if err := requireAll("group-by", n.child.schema(), n.keys); err != nil {
			return err
		}
	case *joinNode:
		if err := requireAll("join (left)", n.left.schema(), []string{n.leftKey}); err != nil {
			return err
		}
		if err := requireAll("join (right)", n.right.schema(), []string{n.rightKey}); err != nil {
			return err
		}
	}
	for _, c := range node.children() {
		if err := validateWideColumns(c); err != nil {
			return err
		}
	}
	return nil
}

// eval recursively executes a plan node, returning its output partitions.
// With fusion enabled, a maximal chain of narrow operators ending at node
// (optionally capped by a limit) executes as one fused stage — one cluster
// job of batch kernels; with fusion off, every narrow operator runs as a
// one-operator stage of its own.
func (e *Engine) eval(ctx context.Context, node planNode, st *execState) ([]*storage.ColumnBatch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.fuse {
		if ch, ok := narrowChainOf(node); ok {
			return e.evalFused(ctx, ch, st)
		}
	}
	switch n := node.(type) {
	case *sourceNode:
		return e.evalSource(n, st)
	case *filterNode, *mapNode, *flatMapNode, *projectNode, *withColumnNode, *sampleNode:
		return e.evalFused(ctx, fusedChain{ops: []planNode{n}, base: n.children()[0], limit: -1}, st)
	case *unionNode:
		left, err := e.eval(ctx, n.left, st)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(ctx, n.right, st)
		if err != nil {
			return nil, err
		}
		return append(append([]*storage.ColumnBatch{}, left...), right...), nil
	case *limitNode:
		in, err := e.eval(ctx, n.child, st)
		if err != nil {
			return nil, err
		}
		return truncateParts(in, n.n, n.schema()), nil
	case *iterateNode:
		return e.evalIterate(ctx, n, st)
	case *loopSourceNode:
		parts, ok := st.loopBinding(n)
		if !ok {
			return nil, fmt.Errorf("%w: loop state referenced outside its Iterate", ErrBadPlan)
		}
		return parts, nil
	case *distinctNode:
		return e.evalDistinct(ctx, n, st)
	case *sortNode:
		return e.evalSort(ctx, n, st)
	case *groupByNode:
		return e.evalGroupBy(ctx, n, st)
	case *joinNode:
		return e.evalJoin(ctx, n, st)
	default:
		return nil, fmt.Errorf("%w: unknown node %T", ErrBadPlan, node)
	}
}

// evalSource returns the source partitions.
func (e *Engine) evalSource(n *sourceNode, st *execState) ([]*storage.ColumnBatch, error) {
	total := countBatchRows(n.batches)
	st.addRead(total)
	st.addBatches(len(n.batches), total)
	return append([]*storage.ColumnBatch(nil), n.batches...), nil
}

// truncateParts keeps the first limit rows in partition order as one
// partition (Limit's semantics). A single contributing batch is kept as a
// zero-copy head view; several are concatenated.
func truncateParts(in []*storage.ColumnBatch, limit int, schema *storage.Schema) []*storage.ColumnBatch {
	var kept []*storage.ColumnBatch
	remaining := limit
	for _, b := range in {
		if remaining <= 0 {
			break
		}
		if b.Len() == 0 {
			continue
		}
		b = b.Head(remaining)
		kept = append(kept, b)
		remaining -= b.Len()
	}
	switch len(kept) {
	case 0:
		return []*storage.ColumnBatch{storage.NewColumnBatch(schema, 0)}
	case 1:
		return kept
	default:
		return []*storage.ColumnBatch{flattenBatches(schema, kept)}
	}
}

// spillChunkRows caps the open per-bucket builder on the budgeted batch
// shuffle: a chunk seals into the partition store (and becomes spillable)
// once it reaches this many rows, so the gather itself never accumulates
// unbounded resident state.
const spillChunkRows = 4096

// shuffleBatches hash-partitions columnar batches on keys encoded straight
// from the column vectors into a partition store, so no boxed Row is ever
// materialised on either side of the shuffle. See gatherBatches for the
// gather and spill mechanics. Callers must release the store via
// execState.releaseStore once its partitions are consumed.
func (e *Engine) shuffleBatches(in []*storage.ColumnBatch, schema *storage.Schema,
	enc *storage.KeyEncoder, st *execState) (*storage.PartitionStore, error) {

	local := enc.Clone()
	assign := bucketsOf(in, func(b *storage.ColumnBatch, i int) int {
		return storage.PartitionOfHash(local.BatchHash(b, i), e.shufflePartitions)
	})
	return e.gatherBatches(in, assign, schema, st)
}

// bucketsOf assigns every row of every input batch to a partition:
// assign[bi][i] is the partition of row i of in[bi].
func bucketsOf(in []*storage.ColumnBatch, partOf func(b *storage.ColumnBatch, i int) int) [][]int32 {
	assign := make([][]int32, len(in))
	for bi, b := range in {
		a := make([]int32, b.Len())
		for i := range a {
			a[i] = int32(partOf(b, i))
		}
		assign[bi] = a
	}
	return assign
}

// gatherBatches redistributes columnar batches into a partition store under
// a precomputed (batch, row) → partition assignment — hash buckets for the
// keyed shuffles, range buckets for the sort. Rows keep their input order
// within each partition and move with typed gathers, one AppendGather per
// (batch, partition) selection. Without a memory budget each partition gets
// one exactly pre-sized batch. With a budget rows gather into spillChunkRows
// chunks that seal into the store as they fill; the store spills the
// coldest chunks to disk whenever the resident total exceeds the budget, and
// the consuming tasks restore them transparently on read. Callers must
// release the store via execState.releaseStore once its partitions are
// consumed.
func (e *Engine) gatherBatches(in []*storage.ColumnBatch, assign [][]int32, schema *storage.Schema,
	st *execState) (*storage.PartitionStore, error) {

	st.addStage()
	nParts := e.shufflePartitions
	store, err := storage.NewPartitionStore(schema, nParts, e.memoryBudget, e.spillDir)
	if err != nil {
		return nil, err
	}
	total, sealed := 0, 0
	// seal hands a finished batch to the store, releasing the store (removing
	// any partial spill file and folding its counters into the stats) if the
	// append fails.
	seal := func(p int, b *storage.ColumnBatch) error {
		if err := store.Append(p, b); err != nil {
			st.releaseStore(store)
			return err
		}
		sealed++
		return nil
	}
	counts := make([]int, nParts)
	for _, a := range assign {
		total += len(a)
		for _, p := range a {
			counts[p]++
		}
	}
	// open holds each partition's batch under construction: the whole
	// partition without a budget, the current chunk with one.
	open := make([]*storage.ColumnBatch, nParts)
	sels := make([][]int32, nParts)
	for bi, b := range in {
		for p := range sels {
			sels[p] = sels[p][:0]
		}
		for i, p := range assign[bi] {
			sels[p] = append(sels[p], int32(i))
		}
		for p, sel := range sels {
			for len(sel) > 0 {
				if open[p] == nil {
					capacity := counts[p]
					if e.memoryBudget > 0 {
						capacity = min(capacity, spillChunkRows)
					}
					open[p] = storage.NewColumnBatch(schema, capacity)
				}
				k := len(sel)
				if e.memoryBudget > 0 {
					k = min(k, spillChunkRows-open[p].Len())
				}
				open[p].AppendGather(b, sel[:k])
				counts[p] -= k
				sel = sel[k:]
				if e.memoryBudget > 0 && open[p].Len() >= spillChunkRows {
					if err := seal(p, open[p]); err != nil {
						return nil, err
					}
					open[p] = nil
				}
			}
		}
	}
	for p, b := range open {
		if b == nil || b.Len() == 0 {
			continue
		}
		if err := seal(p, b); err != nil {
			return nil, err
		}
	}
	st.addShuffled(total)
	st.addBatches(sealed, total)
	return store, nil
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

// evalSort executes Sort over columnar batches: per-type compare kernels
// (batchComparator) order selection vectors directly over the column vectors
// — no row is boxed anywhere, including the range-partition sampling — and
// under a memory budget each partition runs as a spill-aware external merge
// of sorted runs (sortPartition).
func (e *Engine) evalSort(ctx context.Context, n *sortNode, st *execState) ([]*storage.ColumnBatch, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	schema := n.child.schema()
	cmp, err := newBatchComparator(schema, n.orders)
	if err != nil {
		return nil, err
	}
	batches := make([]*storage.ColumnBatch, 0, len(in))
	for _, b := range in {
		if b.Len() > 0 {
			batches = append(batches, b)
		}
	}
	total := countBatchRows(batches)
	if e.rangeSort && e.shufflePartitions > 1 && total > e.shufflePartitions*rangeSortMinRowsPerPartition {
		return e.evalSortRange(ctx, batches, total, cmp, schema, st)
	}
	// Single-task sort (range sorting off, or the small-input fallback): one
	// task sorts the whole input.
	st.addStage()
	st.addShuffled(total)
	out := make([][]*storage.ColumnBatch, 1)
	task := []cluster.Task{{
		Name: "sort[0]",
		Fn: func(ctx context.Context, node cluster.Node) error {
			sorted, err := e.sortPartition(schema, cmp, total, st, func(f func(*storage.ColumnBatch) error) error {
				for _, b := range batches {
					if err := f(b); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			out[0] = sorted
			return nil
		},
	}}
	st.addTasks(1)
	if _, err := e.cluster.RunNamedJob(ctx, "sort", task); err != nil {
		return nil, fmt.Errorf("dataflow: sort: %w", err)
	}
	return sortedBatchParts(out, schema, st), nil
}

// evalSortRange implements the range-partitioned parallel sort: sample the
// input to estimate the key distribution, derive shufflePartitions-1 split
// points, range-shuffle every row to its partition by batch index through a
// partition store (spilling under budget), and sort the partitions in
// parallel — selection-vector sorts in memory, external run merges under a
// budget. The output partitions are ordered end to end, so their
// concatenation (what Collect does) is the globally sorted dataset, and
// stability is preserved: the shuffle keeps input order within each
// partition, and rows comparing equal to a split point all land on its right.
func (e *Engine) evalSortRange(ctx context.Context, in []*storage.ColumnBatch, total int,
	cmp *batchComparator, schema *storage.Schema, st *execState) ([]*storage.ColumnBatch, error) {

	// Sample deterministically: a fixed stride over the input approximates
	// the key distribution without an RNG, so repeated runs pick identical
	// split points. The stride rounds up so the collected sample never
	// exceeds the target budget.
	target := e.shufflePartitions * sortSamplesPerPartition
	if target > total {
		target = total
	}
	stride := (total + target - 1) / target
	sample := storage.NewColumnBatch(schema, target)
	i := 0
	for _, b := range in {
		for r := 0; r < b.Len(); r++ {
			if i%stride == 0 {
				sample.AppendRowFrom(b, r)
			}
			i++
		}
	}
	st.addSampled(sample.Len())
	sortedSample := sample.Gather(cmp.sortedSelection(sample))
	bounds := make([]int, 0, e.shufflePartitions-1)
	for b := 1; b < e.shufflePartitions; b++ {
		bounds = append(bounds, b*sortedSample.Len()/e.shufflePartitions)
	}

	// Range shuffle: partition p receives the rows in [bounds[p-1], bounds[p]).
	assign := bucketsOf(in, func(b *storage.ColumnBatch, r int) int {
		return sort.Search(len(bounds), func(x int) bool {
			return cmp.Compare(b, r, sortedSample, bounds[x]) < 0
		})
	})
	store, err := e.gatherBatches(in, assign, schema, st)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(store)

	nParts := store.Partitions()
	out := make([][]*storage.ColumnBatch, nParts)
	tasks := make([]cluster.Task, nParts)
	for p := range tasks {
		p := p
		tasks[p] = cluster.Task{
			Name: fmt.Sprintf("sort-range[%d]", p),
			Fn: func(ctx context.Context, node cluster.Node) error {
				sorted, err := e.sortPartition(schema, cmp, store.PartitionRows(p), st,
					func(f func(*storage.ColumnBatch) error) error { return store.EachBatch(p, f) })
				if err != nil {
					return err
				}
				out[p] = sorted
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "sort-range", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: sort-range: %w", err)
	}
	return sortedBatchParts(out, schema, st), nil
}

// sortPartition sorts one partition's batches, streamed by each. In memory
// (no budget) it flattens the partition and gathers the sorted selection
// vector — one output batch. Under a budget it is the external merge: fixed
// SortChunkRows-row chunks are selection-sorted into runs, runs spill through
// the batch codec when the run store's budget is exceeded, and a loser-tree
// merge streams them back in chunk-sized output batches, so the sort's own
// accumulation stays bounded by runs × chunk instead of the partition size.
func (e *Engine) sortPartition(schema *storage.Schema, cmp *batchComparator, rows int,
	st *execState, each func(func(*storage.ColumnBatch) error) error) ([]*storage.ColumnBatch, error) {

	if rows == 0 {
		return nil, nil
	}
	if e.memoryBudget <= 0 {
		var list []*storage.ColumnBatch
		if err := each(func(b *storage.ColumnBatch) error { list = append(list, b); return nil }); err != nil {
			return nil, err
		}
		flat := list[0]
		if len(list) > 1 {
			flat = flattenBatches(schema, list)
		}
		return []*storage.ColumnBatch{flat.Gather(cmp.sortedSelection(flat))}, nil
	}

	rs, err := storage.NewRunStore(schema, e.memoryBudget, e.spillDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		st.noteSortPeak(rs.MaxResidentBytes())
		st.releaseStore(rs)
	}()
	chunkCap := SortChunkRows
	if rows < chunkCap {
		chunkCap = rows
	}
	open := storage.NewColumnBatch(schema, chunkCap)
	seal := func() error {
		if open.Len() == 0 {
			return nil
		}
		if err := rs.AppendRun(open.Gather(cmp.sortedSelection(open))); err != nil {
			return err
		}
		open = storage.NewColumnBatch(schema, chunkCap)
		return nil
	}
	err = each(func(b *storage.ColumnBatch) error {
		for i := 0; i < b.Len(); i++ {
			open.AppendRowFrom(b, i)
			if open.Len() >= SortChunkRows {
				if err := seal(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := seal(); err != nil {
		return nil, err
	}
	st.addSortRuns(rs.Runs())
	var out []*storage.ColumnBatch
	err = rs.Merge(cmp.Compare, SortChunkRows, func(b *storage.ColumnBatch) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.addSortMerged(len(out))
	return out, nil
}

// sortedBatchParts flattens per-partition sorted batch sequences into one
// partition list, preserving partition order (their concatenation is the
// globally sorted output). Empty partitions keep an empty placeholder, so the
// output has at least one partition per sort task.
func sortedBatchParts(in [][]*storage.ColumnBatch, schema *storage.Schema, st *execState) []*storage.ColumnBatch {
	out := make([]*storage.ColumnBatch, 0, len(in))
	nBatches, nRows := 0, 0
	for _, bs := range in {
		if len(bs) == 0 {
			out = append(out, storage.NewColumnBatch(schema, 0))
			continue
		}
		for _, b := range bs {
			out = append(out, b)
			nBatches++
			nRows += b.Len()
		}
	}
	st.addBatches(nBatches, nRows)
	return out
}

// ---------------------------------------------------------------------------
// Group-by, join and distinct entry points
// ---------------------------------------------------------------------------

// evalGroupBy runs the columnar aggregation core (agg_columnar.go): with
// map-side combine on, partial group state crosses the shuffle; with it off,
// raw rows do and the reduce side owns all group state.
func (e *Engine) evalGroupBy(ctx context.Context, n *groupByNode, st *execState) ([]*storage.ColumnBatch, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	enc, err := storage.NewKeyEncoder(n.child.schema(), n.keys...)
	if err != nil {
		return nil, fmt.Errorf("dataflow: group-by: %w", err)
	}
	if e.combine {
		return e.evalGroupByCombined(ctx, n, in, enc, st)
	}
	return e.evalGroupByHash(ctx, n, in, enc, st)
}

func (e *Engine) evalJoin(ctx context.Context, n *joinNode, st *execState) ([]*storage.ColumnBatch, error) {
	left, err := e.eval(ctx, n.left, st)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(ctx, n.right, st)
	if err != nil {
		return nil, err
	}
	lEnc, err := storage.NewKeyEncoder(n.left.schema(), n.leftKey)
	if err != nil {
		return nil, fmt.Errorf("dataflow: join (left): %w", err)
	}
	rEnc, err := storage.NewKeyEncoder(n.right.schema(), n.rightKey)
	if err != nil {
		return nil, fmt.Errorf("dataflow: join (right): %w", err)
	}
	return e.joinBatches(ctx, n, left, right, lEnc, rEnc, st)
}

func (e *Engine) evalDistinct(ctx context.Context, n *distinctNode, st *execState) ([]*storage.ColumnBatch, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	enc, err := storage.NewKeyEncoder(n.child.schema(), n.cols...)
	if err != nil {
		return nil, fmt.Errorf("dataflow: distinct: %w", err)
	}
	return e.distinctBatches(ctx, n.child.schema(), in, enc, st)
}
