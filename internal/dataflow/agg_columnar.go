package dataflow

// agg_columnar.go implements the engine's aggregation core: a
// storage.GroupTable maps keys to dense group ids and every aggregation
// accumulates into typed vectors indexed by group id (aggVecs), so the
// per-row hot loop is one tight typed pass per aggregation.
//
// Every group-by path is built on the same accumulators and on one
// partial-state batch layout (aggSpillSchema: key columns, a first-seen
// sequence number, then per aggregation its count plus sum/sumSq, a typed
// extreme, or an encoded distinct set):
//
//   - the combined path (evalGroupByCombined) aggregates each input batch on
//     the map side and emits its groups as one partial-state batch; those
//     batches shuffle through the budgeted partition store like any other
//     shuffle, and each reduce task folds them with mergeSpillBatch and
//     emits the merged groups with emitAggBatch;
//   - the non-combined hash aggregation (evalGroupByHash) folds shuffled
//     bucket batches into one table per bucket and emits the output as a
//     columnar batch whose key columns are shared zero-copy from the table;
//   - under WithMemoryBudget the non-combined path becomes spill-aware: when
//     the resident group state exceeds the budget it is flushed as
//     partial-state batches, hash-partitioned into aggSpillPartitions
//     sub-partitions of a PartitionStore (which re-spills them through the
//     batch codec), runs-then-merge style like storage.RunStore: a second
//     pass re-aggregates each sub-partition, whose peak state is ~1/P of the
//     group universe. The first-seen sequence number travels with the
//     partials so the merged output is re-sorted into the exact emission
//     order of the in-memory path.
//
// Aggregation semantics: nulls are skipped; min/max order like
// storage.CompareValues (numerics through float64, NaN never replacing, the
// first value winning ties); sums coerce like storage.AsFloat. Over a group
// with no non-null input, Count is the group's row count, Sum is 0, Count
// Distinct is 0, and Avg, Min, Max and StdDev are null. Float summation order
// is the one caveat: merging partials regroups additions, which is only
// bit-stable when the data sums exactly.

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// aggSpillPartitions is the number of hash sub-partitions the spilling hash
// aggregation re-partitions overflowing group state into. The key hash is run
// through a finalizing mixer first: the raw low bits already chose the
// shuffle bucket (PartitionOfHash is h % nParts), and FNV-1a barely stirs the
// bits above 32 for short keys, so any fixed bit range of the raw hash would
// leave the sub-partitions skewed or correlated with the bucket split.
const aggSpillPartitions = 16

// aggBudgetCheckRows is the sub-range granularity at which the budgeted hash
// aggregation re-checks its resident state against the memory budget, so one
// flush epoch holds at most this many rows' worth of new groups.
const aggBudgetCheckRows = 256

// aggSubPartition maps a group's key hash to its spill sub-partition through
// a 64-bit avalanche mixer (the Murmur3 finalizer), so every input bit
// reaches the partition choice.
func aggSubPartition(hash uint64) int {
	h := hash
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % aggSpillPartitions)
}

// aggKeyLayout derives the key-column schema (the output schema's key prefix)
// and the input column index of each key.
func aggKeyLayout(n *groupByNode, inSchema *storage.Schema) (*storage.Schema, []int, error) {
	fields := make([]storage.Field, len(n.keys))
	keyIdx := make([]int, len(n.keys))
	for i, k := range n.keys {
		fields[i] = n.out.Field(i)
		keyIdx[i] = inSchema.IndexOf(k)
	}
	keySchema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, nil, fmt.Errorf("dataflow: group-by key layout: %w", err)
	}
	return keySchema, keyIdx, nil
}

// ---------------------------------------------------------------------------
// aggVecs: one aggregation's state across all groups, as typed vectors
// ---------------------------------------------------------------------------

// aggVecs holds one aggregation's state for every group id: counts, sums and
// squared sums as dense numeric vectors, min/max extremes as one typed vector
// (selected by the input column type) plus a has-value bitmap, and
// count-distinct sets as lazily allocated maps.
type aggVecs struct {
	spec    Aggregation
	colIdx  int
	extType storage.FieldType

	counts []int64
	sums   []float64
	sumSqs []float64

	has       []bool
	extInts   []int64
	extFloats []float64
	extStrs   []string
	extBools  []bool

	distinct []map[string]struct{}
}

func newAggVecs(spec Aggregation, in *storage.Schema) *aggVecs {
	a := &aggVecs{spec: spec, colIdx: -1}
	if spec.Column != "" {
		a.colIdx = in.IndexOf(spec.Column)
	}
	if a.colIdx >= 0 {
		a.extType = in.Field(a.colIdx).Type
	}
	return a
}

func newAggVecSet(aggs []Aggregation, in *storage.Schema) []*aggVecs {
	out := make([]*aggVecs, len(aggs))
	for i, a := range aggs {
		out[i] = newAggVecs(a, in)
	}
	return out
}

// growZero extends s to length n with zero values, reusing spare capacity
// (heap allocations arrive zeroed, and accumulator vectors are never
// truncated, so the region beyond len is always still zero).
func growZero[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]T, n, n+n/2+16)
	copy(ns, s)
	return ns
}

// ensure grows the state vectors to cover group ids [0, n).
func (a *aggVecs) ensure(n int) {
	a.counts = growZero(a.counts, n)
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		a.sums = growZero(a.sums, n)
		a.sumSqs = growZero(a.sumSqs, n)
	case AggMin, AggMax:
		a.has = growZero(a.has, n)
		switch a.extType {
		case storage.TypeInt, storage.TypeTime:
			a.extInts = growZero(a.extInts, n)
		case storage.TypeFloat:
			a.extFloats = growZero(a.extFloats, n)
		case storage.TypeString:
			a.extStrs = growZero(a.extStrs, n)
		case storage.TypeBool:
			a.extBools = growZero(a.extBools, n)
		}
	case AggCountDistinct:
		a.distinct = growZero(a.distinct, n)
	}
}

func ensureAggVecs(accs []*aggVecs, n int) {
	for _, a := range accs {
		a.ensure(n)
	}
}

// memSize estimates the resident footprint of the state vectors.
func (a *aggVecs) memSize() int64 {
	total := 8 * int64(len(a.counts)+len(a.sums)+len(a.sumSqs)+len(a.extInts)+len(a.extFloats))
	total += int64(len(a.has) + len(a.extBools))
	for _, s := range a.extStrs {
		total += 16 + int64(len(s))
	}
	for _, m := range a.distinct {
		total += 8
		for k := range m {
			total += 48 + int64(len(k))
		}
	}
	return total
}

func aggVecsSize(accs []*aggVecs) int64 {
	var total int64
	for _, a := range accs {
		total += a.memSize()
	}
	return total
}

// updateBatch folds one input batch into the state vectors: ids[i] is the
// group id of batch row i. The kind × column-type dispatch happens once per
// batch; the inner loops read the typed vectors directly.
func (a *aggVecs) updateBatch(b *storage.ColumnBatch, ids []int32, base int) {
	if a.spec.Kind == AggCount {
		for _, id := range ids {
			a.counts[id]++
		}
		return
	}
	if a.colIdx < 0 || a.colIdx >= b.Width() {
		return
	}
	col := b.Column(a.colIdx)
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		a.updateNumeric(b, col, ids, base)
	case AggMin:
		a.foldMin(col, ids, base, true)
	case AggMax:
		a.foldMax(col, ids, base, true)
	case AggCountDistinct:
		a.updateDistinct(b, col, ids, base)
	}
}

func (a *aggVecs) updateNumeric(b *storage.ColumnBatch, col *storage.Column, ids []int32, base int) {
	switch col.Type() {
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f := col.Float(i)
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
		}
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f := float64(col.Int(i))
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
		}
	case storage.TypeBool:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			var f float64
			if col.Bool(i) {
				f = 1
			}
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
		}
	default:
		// Strings (and anything exotic) go through FloatAt, which matches
		// AsFloat: unparsable cells still count and contribute zero.
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f, _ := b.FloatAt(i, a.colIdx)
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
		}
	}
}

// foldMin folds column cells into the per-group minimum, replicating
// CompareValues ordering: numerics compare through float64 (so NaN never
// replaces an extreme and ties keep the first value), strings lexically,
// bools false < true. addCount counts every considered (non-null) cell; the
// partial-state merge replays counts separately and passes false.
func (a *aggVecs) foldMin(col *storage.Column, ids []int32, base int, addCount bool) {
	switch a.extType {
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Int(i)
			if !a.has[id] {
				a.has[id] = true
				a.extInts[id] = v
			} else if float64(v) < float64(a.extInts[id]) {
				a.extInts[id] = v
			}
		}
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Float(i)
			if !a.has[id] {
				a.has[id] = true
				a.extFloats[id] = v
			} else if v < a.extFloats[id] {
				a.extFloats[id] = v
			}
		}
	case storage.TypeString:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Str(i)
			if !a.has[id] {
				a.has[id] = true
				a.extStrs[id] = v
			} else if v < a.extStrs[id] {
				a.extStrs[id] = v
			}
		}
	case storage.TypeBool:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Bool(i)
			if !a.has[id] {
				a.has[id] = true
				a.extBools[id] = v
			} else if !v && a.extBools[id] {
				a.extBools[id] = false
			}
		}
	}
}

// foldMax mirrors foldMin with the comparison reversed.
func (a *aggVecs) foldMax(col *storage.Column, ids []int32, base int, addCount bool) {
	switch a.extType {
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Int(i)
			if !a.has[id] {
				a.has[id] = true
				a.extInts[id] = v
			} else if float64(v) > float64(a.extInts[id]) {
				a.extInts[id] = v
			}
		}
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Float(i)
			if !a.has[id] {
				a.has[id] = true
				a.extFloats[id] = v
			} else if v > a.extFloats[id] {
				a.extFloats[id] = v
			}
		}
	case storage.TypeString:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Str(i)
			if !a.has[id] {
				a.has[id] = true
				a.extStrs[id] = v
			} else if v > a.extStrs[id] {
				a.extStrs[id] = v
			}
		}
	case storage.TypeBool:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Bool(i)
			if !a.has[id] {
				a.has[id] = true
				a.extBools[id] = v
			} else if v && !a.extBools[id] {
				a.extBools[id] = true
			}
		}
	}
}

func (a *aggVecs) updateDistinct(b *storage.ColumnBatch, col *storage.Column, ids []int32, base int) {
	for j, id := range ids {
		i := base + j
		if col.Null(i) {
			continue
		}
		a.counts[id]++
		set := a.distinct[id]
		if set == nil {
			set = make(map[string]struct{})
			a.distinct[id] = set
		}
		set[b.StringAt(i, a.colIdx)] = struct{}{}
	}
}

// appendResult appends group g's result to an output column of the
// aggregation's output type, typed (no boxing for numeric results).
func (a *aggVecs) appendResult(c *storage.Column, g int) {
	switch a.spec.Kind {
	case AggCount:
		c.AppendInt(a.counts[g])
	case AggCountDistinct:
		c.AppendInt(int64(len(a.distinct[g])))
	case AggSum:
		c.AppendFloat(a.sums[g])
	case AggAvg:
		if a.counts[g] == 0 {
			c.AppendNull(g)
			return
		}
		c.AppendFloat(a.sums[g] / float64(a.counts[g]))
	case AggStdDev:
		if v := stdDevResult(a.counts[g], a.sums[g], a.sumSqs[g]); v == nil {
			c.AppendNull(g)
		} else {
			c.AppendFloat(v.(float64))
		}
	case AggMin, AggMax:
		a.appendExtreme(c, g)
	default:
		c.AppendNull(g)
	}
}

// appendExtreme appends group g's min/max extreme to a column of the
// aggregated column's type (null when the group saw no non-null value).
func (a *aggVecs) appendExtreme(c *storage.Column, g int) {
	if g >= len(a.has) || !a.has[g] {
		c.AppendNull(g)
		return
	}
	switch a.extType {
	case storage.TypeInt, storage.TypeTime:
		c.AppendInt(a.extInts[g])
	case storage.TypeFloat:
		c.AppendFloat(a.extFloats[g])
	case storage.TypeString:
		c.AppendStr(a.extStrs[g])
	case storage.TypeBool:
		c.AppendBool(a.extBools[g])
	default:
		c.AppendNull(g)
	}
}

// stdDevResult is the population standard deviation from a group's count,
// sum and squared sum (nil over an empty group).
func stdDevResult(count int64, sum, sumSq float64) storage.Value {
	if count == 0 {
		return nil
	}
	mean := sum / float64(count)
	variance := sumSq/float64(count) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

// emitAggBatch materialises the aggregation output as one columnar batch: key
// columns are shared zero-copy from the group table (group id order is
// first-seen order) and one typed result column is built per aggregation.
func emitAggBatch(n *groupByNode, table *storage.GroupTable, accs []*aggVecs) (*storage.ColumnBatch, error) {
	groups := table.Groups()
	nKeys := len(n.keys)
	cols := make([]storage.Column, n.out.Len())
	kr := table.KeyRows()
	for j := 0; j < nKeys; j++ {
		cols[j] = *kr.Column(j)
	}
	for j, a := range accs {
		c := storage.NewColumnBuilder(n.out.Field(nKeys+j).Type, groups)
		for g := 0; g < groups; g++ {
			a.appendResult(&c, g)
		}
		cols[nKeys+j] = c
	}
	return storage.BatchOfColumns(n.out, groups, cols)
}

// ---------------------------------------------------------------------------
// Combined group-by
// ---------------------------------------------------------------------------

// evalGroupByCombined implements group-by with a map-side combine pass: one
// job folds each input partition into per-key partial state and emits it as
// one partial-state batch, only those partials cross the shuffle boundary
// (through the budgeted partition store, hash-partitioned on the group key),
// and a second job merges the partials per key and emits the final rows.
// When keys repeat within partitions this shuffles far fewer rows than the
// non-combined path. Each bucket emits its groups in first-seen order of the
// partials, which arrive in input-partition order.
func (e *Engine) evalGroupByCombined(ctx context.Context, n *groupByNode,
	in []*storage.ColumnBatch, enc *storage.KeyEncoder, st *execState) ([]*storage.ColumnBatch, error) {

	inSchema := n.child.schema()
	keySchema, keyIdx, err := aggKeyLayout(n, inSchema)
	if err != nil {
		return nil, err
	}
	spillSchema, err := aggSpillSchema(keySchema, n.aggs, inSchema)
	if err != nil {
		return nil, err
	}
	partials := make([]*storage.ColumnBatch, len(in))
	assign := make([][]int32, len(in))
	tasks := make([]cluster.Task, len(in))
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("groupby-combine[%d]", i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				b := in[i]
				table := storage.NewGroupTable(keySchema, keyIdx, enc.Clone())
				accs := newAggVecSet(n.aggs, inSchema)
				ids := table.MapBatch(b, nil)
				ensureAggVecs(accs, table.Groups())
				for _, a := range accs {
					a.updateBatch(b, ids, 0)
				}
				st.noteAggPeak(table.MemSize() + aggVecsSize(accs))
				pb, err := partialBatch(spillSchema, table, accs, nil)
				if err != nil {
					return err
				}
				// The shuffle bucket comes from the key hash the table
				// already computed, so no partial is keyed twice.
				buckets := make([]int32, table.Groups())
				for g := range buckets {
					buckets[g] = int32(storage.PartitionOfHash(table.Hash(g), e.shufflePartitions))
				}
				partials[i], assign[i] = pb, buckets
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby-combine", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby-combine: %w", err)
	}

	partialEnc, err := partialKeyEncoder(spillSchema, len(n.keys))
	if err != nil {
		return nil, err
	}
	st.addCombined(countBatchRows(in) - countBatchRows(partials))
	store, err := e.gatherBatches(partials, assign, spillSchema, st)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(store)

	nParts := store.Partitions()
	out := make([]*storage.ColumnBatch, nParts)
	mergeTasks := make([]cluster.Task, nParts)
	for p := range mergeTasks {
		p := p
		mergeTasks[p] = cluster.Task{
			Name: fmt.Sprintf("groupby-merge[%d]", p),
			Fn: func(ctx context.Context, node cluster.Node) error {
				table, accs, _, err := mergePartials(n, keySchema, inSchema, partialEnc.Clone(), st.noteAggPeak,
					func(f func(*storage.ColumnBatch) error) error { return store.EachBatch(p, f) })
				if err != nil {
					return err
				}
				st.addAggGroups(table.Groups())
				res, err := emitAggBatch(n, table, accs)
				if err != nil {
					return err
				}
				out[p] = res
				return nil
			},
		}
	}
	st.addTasks(len(mergeTasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby-merge", mergeTasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby-merge: %w", err)
	}
	st.addBatches(len(out), countBatchRows(out))
	return out, nil
}

// ---------------------------------------------------------------------------
// Non-combined hash aggregation (in-memory and spilling)
// ---------------------------------------------------------------------------

// evalGroupByHash is the non-combined columnar group-by: rows cross the
// shuffle boundary through a partition store, and one task per bucket folds
// the restored batches through a GroupTable into typed accumulators. Without
// a budget the bucket's groups are emitted directly as a columnar batch;
// under WithMemoryBudget the group state itself is spill-aware (see
// hashAggPartition).
func (e *Engine) evalGroupByHash(ctx context.Context, n *groupByNode,
	in []*storage.ColumnBatch, enc *storage.KeyEncoder, st *execState) ([]*storage.ColumnBatch, error) {

	inSchema := n.child.schema()
	keySchema, keyIdx, err := aggKeyLayout(n, inSchema)
	if err != nil {
		return nil, err
	}
	spillSchema, err := aggSpillSchema(keySchema, n.aggs, inSchema)
	if err != nil {
		return nil, err
	}
	store, err := e.shuffleBatches(in, inSchema, enc, st)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(store)
	nParts := store.Partitions()
	out := make([]*storage.ColumnBatch, nParts)
	tasks := make([]cluster.Task, nParts)
	for b := range tasks {
		b := b
		tasks[b] = cluster.Task{
			Name: fmt.Sprintf("groupby[%d]", b),
			Fn: func(ctx context.Context, node cluster.Node) error {
				res, err := e.hashAggPartition(n, b, store, enc, keySchema, keyIdx, spillSchema, inSchema, st)
				if err != nil {
					return err
				}
				out[b] = res
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby: %w", err)
	}
	return out, nil
}

// hashAggPartition aggregates one shuffle bucket. The build loop maps each
// restored batch to dense group ids and runs the typed update kernels; under
// a memory budget, whenever the resident group state (table + accumulator
// vectors) exceeds it, the state is flushed as partial rows into an aggSpill
// and the table reset — so peak resident state stays bounded by the budget
// plus one batch's worth of fresh groups. If nothing flushed, groups are
// emitted directly; otherwise the sub-partitions are merged and re-ordered by
// first-seen sequence so the output matches the in-memory emission order.
func (e *Engine) hashAggPartition(n *groupByNode, bucket int, store *storage.PartitionStore,
	enc *storage.KeyEncoder, keySchema *storage.Schema, keyIdx []int,
	spillSchema *storage.Schema, inSchema *storage.Schema, st *execState) (*storage.ColumnBatch, error) {

	table := storage.NewGroupTable(keySchema, keyIdx, enc.Clone())
	accs := newAggVecSet(n.aggs, inSchema)
	var seqs []int64
	var nextSeq int64
	var sp *aggSpill
	var ids []int32
	budget := e.memoryBudget
	// Under a budget the batch is consumed in sub-ranges with a budget check
	// between them, so the resident epoch is bounded even when a bucket's
	// whole input arrives as one shuffle chunk; without one, each batch is
	// one range and the check never runs.
	step := 1 << 30
	if budget > 0 {
		step = aggBudgetCheckRows
	}
	err := store.EachBatch(bucket, func(cb *storage.ColumnBatch) error {
		rows := cb.Len()
		for lo := 0; lo < rows; lo += step {
			hi := lo + step
			if hi > rows {
				hi = rows
			}
			old := table.Groups()
			ids = table.MapRange(cb, lo, hi, ids)
			groups := table.Groups()
			ensureAggVecs(accs, groups)
			for g := old; g < groups; g++ {
				seqs = append(seqs, nextSeq)
				nextSeq++
			}
			for _, a := range accs {
				a.updateBatch(cb, ids, lo)
			}
			if budget > 0 && groups > 0 {
				if size := table.MemSize() + aggVecsSize(accs); size > budget {
					st.noteAggPeak(size)
					if sp == nil {
						var err error
						if sp, err = newAggSpill(spillSchema, len(n.keys), budget, e.spillDir); err != nil {
							return err
						}
					}
					if err := sp.flush(table, accs, seqs); err != nil {
						return err
					}
					table.Reset()
					accs = newAggVecSet(n.aggs, inSchema)
					seqs = seqs[:0]
				}
			}
		}
		return nil
	})
	if err != nil {
		if sp != nil {
			st.releaseStore(sp.store)
		}
		return nil, err
	}
	if sp == nil {
		st.noteAggPeak(table.MemSize() + aggVecsSize(accs))
		st.addAggGroups(table.Groups())
		b, err := emitAggBatch(n, table, accs)
		if err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			st.addBatches(1, b.Len())
		}
		return b, nil
	}
	defer st.releaseStore(sp.store)
	if err := sp.flush(table, accs, seqs); err != nil {
		return nil, err
	}
	b, partsMerged, err := sp.mergeSpilled(n, keySchema, inSchema, st.noteAggPeak)
	if err != nil {
		return nil, err
	}
	st.addAggGroups(b.Len())
	st.addAggSpilledParts(partsMerged)
	if b.Len() > 0 {
		st.addBatches(1, b.Len())
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Spill partitioning of overflowing group state
// ---------------------------------------------------------------------------

// aggSpill holds the partial-state batches of flushed group-state epochs,
// hash-sub-partitioned into a PartitionStore that re-spills them to disk
// through the batch codec under the same memory budget.
type aggSpill struct {
	schema *storage.Schema
	store  *storage.PartitionStore
	nKeys  int
}

func newAggSpill(spillSchema *storage.Schema, nKeys int, budget int64, spillDir string) (*aggSpill, error) {
	ps, err := storage.NewPartitionStore(spillSchema, aggSpillPartitions, budget, spillDir)
	if err != nil {
		return nil, err
	}
	return &aggSpill{schema: spillSchema, store: ps, nKeys: nKeys}, nil
}

// aggSpillSchema builds the partial-state layout: the key columns (all
// nullable — a group key may legitimately be null), the group's first-seen
// sequence number, then per aggregation a count column plus kind-specific
// state (sum+sumSq, a typed nullable extreme, or an encoded distinct set).
func aggSpillSchema(keySchema *storage.Schema, aggs []Aggregation, in *storage.Schema) (*storage.Schema, error) {
	fields := make([]storage.Field, 0, keySchema.Len()+1+3*len(aggs))
	for i := 0; i < keySchema.Len(); i++ {
		fields = append(fields, storage.Field{
			Name: fmt.Sprintf("k%d", i), Type: keySchema.Field(i).Type, Nullable: true,
		})
	}
	fields = append(fields, storage.Field{Name: "seq", Type: storage.TypeInt})
	for j, a := range aggs {
		fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_count", j), Type: storage.TypeInt})
		switch a.Kind {
		case AggSum, AggAvg, AggStdDev:
			fields = append(fields,
				storage.Field{Name: fmt.Sprintf("a%d_sum", j), Type: storage.TypeFloat},
				storage.Field{Name: fmt.Sprintf("a%d_sumsq", j), Type: storage.TypeFloat})
		case AggMin, AggMax:
			t := storage.TypeFloat
			if idx := in.IndexOf(a.Column); idx >= 0 {
				t = in.Field(idx).Type
			}
			fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_ext", j), Type: t, Nullable: true})
		case AggCountDistinct:
			fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_set", j), Type: storage.TypeString})
		}
	}
	return storage.NewSchema(fields...)
}

// partialBatch materialises every group of table as one partial-state batch
// in the aggSpillSchema layout. seqs holds each group's first-seen sequence
// number; nil numbers the groups by id. The key columns are shared with the
// table's key batch.
func partialBatch(schema *storage.Schema, table *storage.GroupTable, accs []*aggVecs, seqs []int64) (*storage.ColumnBatch, error) {
	groups := table.Groups()
	kr := table.KeyRows()
	cols := make([]storage.Column, 0, schema.Len())
	for j := 0; j < kr.Width(); j++ {
		cols = append(cols, *kr.Column(j))
	}
	seq := storage.NewColumnBuilder(storage.TypeInt, groups)
	for g := 0; g < groups; g++ {
		if seqs != nil {
			seq.AppendInt(seqs[g])
		} else {
			seq.AppendInt(int64(g))
		}
	}
	cols = append(cols, seq)
	for _, a := range accs {
		cols = a.appendStateColumns(cols, groups)
	}
	return storage.BatchOfColumns(schema, groups, cols)
}

// appendStateColumns appends this aggregation's partial-state columns for
// groups [0, groups): the count, then sum and squared sum, the extreme (null
// when the group saw no value), or the encoded distinct set.
func (a *aggVecs) appendStateColumns(cols []storage.Column, groups int) []storage.Column {
	counts := storage.NewColumnBuilder(storage.TypeInt, groups)
	for g := 0; g < groups; g++ {
		counts.AppendInt(a.counts[g])
	}
	cols = append(cols, counts)
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		sums := storage.NewColumnBuilder(storage.TypeFloat, groups)
		sumSqs := storage.NewColumnBuilder(storage.TypeFloat, groups)
		for g := 0; g < groups; g++ {
			sums.AppendFloat(a.sums[g])
			sumSqs.AppendFloat(a.sumSqs[g])
		}
		cols = append(cols, sums, sumSqs)
	case AggMin, AggMax:
		ext := storage.NewColumnBuilder(a.extType, groups)
		for g := 0; g < groups; g++ {
			a.appendExtreme(&ext, g)
		}
		cols = append(cols, ext)
	case AggCountDistinct:
		sets := storage.NewColumnBuilder(storage.TypeString, groups)
		for g := 0; g < groups; g++ {
			sets.AppendStr(encodeDistinctSet(a.distinct[g]))
		}
		cols = append(cols, sets)
	}
	return cols
}

// flush serialises every group of the current epoch as partial state,
// appended to each group's hash sub-partition.
func (sp *aggSpill) flush(table *storage.GroupTable, accs []*aggVecs, seqs []int64) error {
	groups := table.Groups()
	if groups == 0 {
		return nil
	}
	pb, err := partialBatch(sp.schema, table, accs, seqs)
	if err != nil {
		return err
	}
	sels := make([][]int32, aggSpillPartitions)
	for g := 0; g < groups; g++ {
		p := aggSubPartition(table.Hash(g))
		sels[p] = append(sels[p], int32(g))
	}
	for p, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		if err := sp.store.Append(p, pb.Gather(sel)); err != nil {
			return err
		}
	}
	return nil
}

// mergeSpillBatch folds one partial-state batch into the merge accumulators,
// starting at spill column col and returning the column after this
// aggregation's state. Counts add, sums add, extremes replace only when
// strictly better (so the earliest extreme wins ties), distinct sets union.
func (a *aggVecs) mergeSpillBatch(pb *storage.ColumnBatch, ids []int32, col int) int {
	cnt := pb.Column(col)
	col++
	for i, id := range ids {
		a.counts[id] += cnt.Int(i)
	}
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		sum, sq := pb.Column(col), pb.Column(col+1)
		col += 2
		for i, id := range ids {
			a.sums[id] += sum.Float(i)
			a.sumSqs[id] += sq.Float(i)
		}
	case AggMin:
		a.foldMin(pb.Column(col), ids, 0, false)
		col++
	case AggMax:
		a.foldMax(pb.Column(col), ids, 0, false)
		col++
	case AggCountDistinct:
		set := pb.Column(col)
		col++
		for i, id := range ids {
			if s := set.Str(i); s != "" {
				a.distinct[id] = decodeDistinctSet(s, a.distinct[id])
			}
		}
	}
	return col
}

// partialKeyEncoder encodes the key columns of the partial-state layout (its
// first nKeys columns). The bytes equal those of the input key columns the
// partials were grouped by, since key encoding depends only on column types
// and values.
func partialKeyEncoder(schema *storage.Schema, nKeys int) (*storage.KeyEncoder, error) {
	cols := make([]string, nKeys)
	for i := range cols {
		cols[i] = schema.Field(i).Name
	}
	return storage.NewKeyEncoder(schema, cols...)
}

// mergePartials folds a stream of partial-state batches into one merge table,
// returning the table, its accumulators and each merged group's first-seen
// sequence number (that of its earliest partial). enc must be a
// partialKeyEncoder for this task; notePeak observes the resident state after
// every batch.
func mergePartials(n *groupByNode, keySchema, inSchema *storage.Schema, enc *storage.KeyEncoder,
	notePeak func(int64), each func(func(*storage.ColumnBatch) error) error) (*storage.GroupTable, []*aggVecs, []int64, error) {

	nKeys := len(n.keys)
	keyIdx := make([]int, nKeys)
	for i := range keyIdx {
		keyIdx[i] = i
	}
	table := storage.NewGroupTable(keySchema, keyIdx, enc)
	accs := newAggVecSet(n.aggs, inSchema)
	var seqs []int64
	var ids []int32
	err := each(func(pb *storage.ColumnBatch) error {
		ids = table.MapBatch(pb, ids)
		ensureAggVecs(accs, table.Groups())
		// New group ids appear in increasing order, so a group's first row
		// is the one whose id equals the number of groups recorded so far.
		seqCol := pb.Column(nKeys)
		for i, id := range ids {
			if int(id) == len(seqs) {
				seqs = append(seqs, seqCol.Int(i))
			}
		}
		col := nKeys + 1
		for _, a := range accs {
			col = a.mergeSpillBatch(pb, ids, col)
		}
		notePeak(table.MemSize() + aggVecsSize(accs))
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return table, accs, seqs, nil
}

// mergeSpilled re-aggregates each sub-partition's partial state into a fresh
// merge table — peak resident state is one sub-partition's group slice,
// ~1/aggSpillPartitions of the bucket's groups — and emits the final groups
// ordered by first-seen sequence, restoring the exact in-memory emission
// order. partsMerged reports how many sub-partitions held spilled state.
func (sp *aggSpill) mergeSpilled(n *groupByNode, keySchema *storage.Schema,
	inSchema *storage.Schema, notePeak func(int64)) (*storage.ColumnBatch, int, error) {

	enc, err := partialKeyEncoder(sp.schema, sp.nKeys)
	if err != nil {
		return nil, 0, err
	}
	var outs []*storage.ColumnBatch
	var seqs []int64
	partsMerged := 0
	for p := 0; p < aggSpillPartitions; p++ {
		if sp.store.PartitionRows(p) == 0 {
			continue
		}
		partsMerged++
		table, accs, pseqs, err := mergePartials(n, keySchema, inSchema, enc.Clone(), notePeak,
			func(f func(*storage.ColumnBatch) error) error { return sp.store.EachBatch(p, f) })
		if err != nil {
			return nil, 0, err
		}
		b, err := emitAggBatch(n, table, accs)
		if err != nil {
			return nil, 0, err
		}
		outs = append(outs, b)
		seqs = append(seqs, pseqs...)
	}
	sel := make([]int32, len(seqs))
	for i := range sel {
		sel[i] = int32(i)
	}
	slices.SortFunc(sel, func(a, b int32) int { return cmp.Compare(seqs[a], seqs[b]) })
	return flattenBatches(n.out, outs).Gather(sel), partsMerged, nil
}

// encodeDistinctSet serialises a distinct set as sorted length-prefixed
// entries (sorted so the spilled bytes are deterministic run to run).
func encodeDistinctSet(set map[string]struct{}) string {
	if len(set) == 0 {
		return ""
	}
	entries := make([]string, 0, len(set))
	for k := range set {
		entries = append(entries, k)
	}
	sort.Strings(entries)
	size := 0
	for _, s := range entries {
		size += len(s) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, size)
	for _, s := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return string(buf)
}

// decodeDistinctSet unions an encoded set into dst (allocating it on first
// use), returning dst.
func decodeDistinctSet(s string, dst map[string]struct{}) map[string]struct{} {
	b := []byte(s)
	for len(b) > 0 {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < l {
			break
		}
		if dst == nil {
			dst = make(map[string]struct{})
		}
		dst[string(b[k:k+int(l)])] = struct{}{}
		b = b[k+int(l):]
	}
	return dst
}
