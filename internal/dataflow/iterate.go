package dataflow

// iterate.go implements fixed-point execution of Iterate plan nodes: the body
// sub-plan (compiled once, against a loopSourceNode placeholder) is
// re-executed over a loop-carried dataset until a convergence predicate or a
// max-iteration bound. Between passes the loop state is fingerprinted with
// the same KeyEncoder the shuffles use; the fingerprints decide convergence
// without a row-by-row comparison pass, and on partition-local bodies they
// let partitions whose input batch is unchanged short-circuit re-execution
// entirely. Under a memory budget the state is staged through a
// PartitionStore between iterations, so loop-carried data past the budget
// spills through the v2 frame codec exactly like any wide operator's
// accumulation.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// fpSeed is the FNV-64 offset basis, the starting value of every partition
// fingerprint.
const fpSeed uint64 = 14695981039346656037

// foldHash folds one row's key hash into a partition fingerprint. The fold is
// order-sensitive (FNV-style xor-then-multiply), so two partitions holding
// the same rows in a different order fingerprint differently — which is what
// the short-circuit proof needs: identical fingerprint ⇒ identical batch.
func foldHash(h, rowHash uint64) uint64 {
	return (h ^ rowHash) * 1099511628211
}

// partFP is the fingerprint of one loop-state partition: an order-sensitive
// fold of its row key hashes plus the row count (which disambiguates the
// empty partition from hash coincidences on short inputs).
type partFP struct {
	hash uint64
	rows int
}

// fingerprintParts fingerprints every partition with enc (whole-row for delta
// detection and the fixpoint predicate, key columns for WithConvergenceKeys),
// hashing straight off the column vectors.
func fingerprintParts(parts []*storage.ColumnBatch, enc *storage.KeyEncoder) []partFP {
	fps := make([]partFP, len(parts))
	for i, b := range parts {
		h := fpSeed
		for r := 0; r < b.Len(); r++ {
			h = foldHash(h, enc.BatchHash(b, r))
		}
		fps[i] = partFP{hash: h, rows: b.Len()}
	}
	return fps
}

func fpEqual(a, b []partFP) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// epsSnapshot materialises the epsilon column as one flat float slice in
// partition-and-row order. Nulls become NaN; epsConverged treats a NaN pair
// as unchanged and a NaN against a number as changed.
func epsSnapshot(parts []*storage.ColumnBatch, col int) []float64 {
	out := make([]float64, 0, countBatchRows(parts))
	for _, b := range parts {
		for r := 0; r < b.Len(); r++ {
			v, ok := b.FloatAt(r, col)
			if !ok {
				v = math.NaN()
			}
			out = append(out, v)
		}
	}
	return out
}

func epsConverged(prev, cur []float64, eps float64) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i := range cur {
		if math.IsNaN(prev[i]) && math.IsNaN(cur[i]) {
			continue
		}
		if !(math.Abs(cur[i]-prev[i]) <= eps) {
			return false
		}
	}
	return true
}

// evalIterate executes one Iterate loop: seed from init, re-run the body over
// the bound loop state until the convergence predicate holds or maxIter
// passes have run. Cancellation is honored between iterations (and inside
// each body pass through the cluster's own context plumbing); any staged
// state store is released on every exit path, so spill temp files never
// outlive the action.
func (e *Engine) evalIterate(ctx context.Context, n *iterateNode, st *execState) ([]*storage.ColumnBatch, error) {
	state, err := e.eval(ctx, n.init, st)
	if err != nil {
		return nil, err
	}
	schema := n.schema()

	// Whole-row encoder: delta detection and the fixpoint predicate. The keys
	// predicate gets its own encoder over the convergence columns.
	fullEnc, err := storage.NewKeyEncoder(schema)
	if err != nil {
		return nil, fmt.Errorf("dataflow: iterate: %w", err)
	}
	var keyEnc *storage.KeyEncoder
	if n.conv == convKeys {
		if keyEnc, err = storage.NewKeyEncoder(schema, n.keyCols...); err != nil {
			return nil, fmt.Errorf("dataflow: iterate: %w", err)
		}
	}
	epsIdx := -1
	if n.conv == convEpsilon {
		epsIdx = schema.IndexOf(n.epsCol)
	}
	// Whole-row fingerprints serve delta short-circuiting and the fixpoint
	// predicate; neither is needed under a pure keys/epsilon loop with delta
	// off.
	needFull := n.delta || n.conv == convFixpoint

	// Partition-local fast path: when the body is one fusible narrow chain
	// reading the loop state directly, output partition i depends only on
	// input partition i, so a partition whose input fingerprint matches the
	// previous pass provably reproduces its current content and is carried
	// over without running.
	var localChain fusedChain
	localOK := false
	if e.fuse && n.delta {
		if ch, ok := narrowChainOf(n.body); ok && ch.base == planNode(n.loop) && ch.limit < 0 {
			localChain, localOK = ch, true
		}
	}

	// Under a memory budget the loop-carried state lives in a PartitionStore
	// between iterations: cold batches spill through the frame codec and are
	// restored when the next pass binds them. releaseStore (deferred) folds
	// the spill counters in and removes the temp file on every exit path —
	// including cancellation between iterations.
	useStore := e.memoryBudget > 0
	var stateStore *storage.PartitionStore
	defer func() {
		if stateStore != nil {
			st.releaseStore(stateStore)
		}
	}()
	// restoreState flattens the staged store back into bindable partitions.
	restoreState := func() ([]*storage.ColumnBatch, error) {
		out := make([]*storage.ColumnBatch, stateStore.Partitions())
		for i := range out {
			b, err := stateStore.FlattenPartition(i)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}

	var fpIn, fpInPrev, keyIn []partFP
	if needFull || localOK {
		fpIn = fingerprintParts(state, fullEnc)
	}
	if keyEnc != nil {
		keyIn = fingerprintParts(state, keyEnc)
	}
	var epsIn []float64
	if epsIdx >= 0 {
		epsIn = epsSnapshot(state, epsIdx)
	}

	var iterations, deltaRows, shortCircuit int64
	converged := false
	for iterations < int64(n.maxIter) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if state == nil {
			if state, err = restoreState(); err != nil {
				return nil, err
			}
		}
		st.bindLoop(n.loop, state)
		var next []*storage.ColumnBatch
		if localOK && fpInPrev != nil && len(fpInPrev) == len(fpIn) {
			next, err = e.runIterateLocalDelta(ctx, localChain, state, fpInPrev, fpIn, &shortCircuit, st)
		} else {
			next, err = e.eval(ctx, n.body, st)
		}
		st.unbindLoop(n.loop)
		if err != nil {
			return nil, err
		}
		iterations++

		// Fingerprint the pass output before staging, while its batches are
		// resident anyway.
		var fpOut []partFP
		if needFull || localOK {
			fpOut = fingerprintParts(next, fullEnc)
		}
		switch n.conv {
		case convFixpoint:
			converged = fpEqual(fpIn, fpOut)
		case convKeys:
			keyOut := fingerprintParts(next, keyEnc)
			converged = fpEqual(keyIn, keyOut)
			keyIn = keyOut
		case convEpsilon:
			epsOut := epsSnapshot(next, epsIdx)
			converged = epsConverged(epsIn, epsOut, n.epsilon)
			epsIn = epsOut
		}
		if n.delta && len(fpIn) == len(fpOut) {
			for i := range fpOut {
				if fpOut[i] != fpIn[i] {
					deltaRows += int64(fpOut[i].rows)
				}
			}
		} else {
			deltaRows += int64(countBatchRows(next))
		}
		fpInPrev, fpIn = fpIn, fpOut

		if useStore && !converged && iterations < int64(n.maxIter) {
			newStore, err := storage.NewPartitionStore(schema, len(next), e.memoryBudget, e.spillDir)
			if err != nil {
				return nil, err
			}
			for i, b := range next {
				if err := newStore.Append(i, b); err != nil {
					st.releaseStore(newStore)
					return nil, err
				}
			}
			if stateStore != nil {
				st.releaseStore(stateStore)
			}
			stateStore = newStore
			// nil state marks "lives in the store": the next pass (or the
			// final return) restores it partition by partition.
			state = nil
			continue
		}
		state = next
		if converged {
			break
		}
	}
	if state == nil {
		if state, err = restoreState(); err != nil {
			return nil, err
		}
	}
	st.noteIterate(iterations, deltaRows, shortCircuit, converged)
	if !converged && n.requireConverged {
		return nil, fmt.Errorf("%w after %d iterations", ErrNotConverged, n.maxIter)
	}
	return state, nil
}

// runIterateLocalDelta runs one pass of a partition-local body chain,
// re-executing only the partitions whose input fingerprint changed since the
// previous pass and carrying the rest over untouched. fpPrev/fpCur are the
// fingerprints of the previous and current pass inputs: input partition i
// unchanged means the (deterministic) chain reproduces exactly the bytes it
// produced last pass, which are the current state — so the copy-through is
// lossless, not approximate.
func (e *Engine) runIterateLocalDelta(ctx context.Context, ch fusedChain, state []*storage.ColumnBatch,
	fpPrev, fpCur []partFP, shortCircuit *int64, st *execState) ([]*storage.ColumnBatch, error) {

	out := make([]*storage.ColumnBatch, len(state))
	changed := make([]int, 0, len(state))
	for i := range state {
		if fpPrev[i] == fpCur[i] {
			out[i] = state[i]
			*shortCircuit++
		} else {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		return out, nil
	}
	name := "iterate-" + ch.name()
	tasks := make([]cluster.Task, len(changed))
	for ti, i := range changed {
		i := i
		tasks[ti] = cluster.Task{
			Name: fmt.Sprintf("%s[%d]", name, i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				res, err := newChainTask(ch, i).run(state[i], nil)
				if err != nil {
					return fmt.Errorf("%w: %v", ErrUDF, err)
				}
				out[i] = res
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, name, tasks); err != nil {
		return nil, fmt.Errorf("dataflow: %s: %w", name, err)
	}
	produced := 0
	for _, i := range changed {
		produced += out[i].Len()
	}
	st.addBatches(len(changed), produced)
	if len(ch.ops) > 1 {
		st.addFused()
	}
	return out, nil
}
