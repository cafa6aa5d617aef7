package dataflow

// reference_test.go is the reference semantics the engine is checked
// against: a naive interpreter over [][]storage.Row. It uses no cluster, no
// KeyEncoder and no engine helper — only the plan nodes' closures and
// storage's value functions (CompareValues, AsFloat, AsString, ValidateRow);
// ColumnBatch appears only where source partitions are boxed into rows on
// entry. Source partitions survive narrow operators and Limit,
// because Sample's seed and Limit's "first n rows in partition order" are
// defined per partition; Distinct, GroupBy, Sort and Join evaluate over the
// concatenated input rows with maps and sort.SliceStable and emit one
// partition.
//
// The value semantics pinned here:
//   - keys (distinct, group-by, join) compare by typed value equality; -0.0
//     equals 0.0, NaN equals only a NaN with the same bits, and null equals
//     null (so null join keys match each other);
//   - Distinct keeps the first row of every key, GroupBy emits groups in
//     first-seen order with the key values of their first row;
//   - aggregates skip nulls: Count counts rows, Sum of no values is 0, Count
//     Distinct of no values is 0, Avg/Min/Max/StdDev of no values are null;
//     Min/Max keep the first value on ties under CompareValues; StdDev is the
//     population deviation sqrt(Σx²/n − mean²), clamped at zero;
//   - Sort is stable under CompareValues, later keys breaking ties.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// refEval evaluates node under the reference semantics. loops binds the
// Iterate placeholders of the loops being evaluated.
func refEval(node planNode, loops map[*loopSourceNode][][]storage.Row) ([][]storage.Row, error) {
	switch n := node.(type) {
	case *sourceNode:
		parts := make([][]storage.Row, len(n.batches))
		for p, b := range n.batches {
			parts[p] = b.Rows()
		}
		return parts, nil
	case *loopSourceNode:
		parts, ok := loops[n]
		if !ok {
			return nil, fmt.Errorf("loop state outside its Iterate")
		}
		return parts, nil
	case *filterNode, *mapNode, *flatMapNode, *projectNode, *withColumnNode, *sampleNode:
		in, err := refEval(node.children()[0], loops)
		if err != nil {
			return nil, err
		}
		out := make([][]storage.Row, len(in))
		for p, rows := range in {
			if out[p], err = refNarrow(node, p, rows); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *unionNode:
		left, err := refEval(n.left, loops)
		if err != nil {
			return nil, err
		}
		right, err := refEval(n.right, loops)
		if err != nil {
			return nil, err
		}
		return append(append([][]storage.Row{}, left...), right...), nil
	case *limitNode:
		in, err := refEval(n.child, loops)
		if err != nil {
			return nil, err
		}
		all := concatRows(in)
		if len(all) > n.n {
			all = all[:n.n]
		}
		return [][]storage.Row{all}, nil
	case *distinctNode:
		in, err := refEval(n.child, loops)
		if err != nil {
			return nil, err
		}
		idx := columnIndices(n.child.schema(), n.cols)
		seen := map[string]bool{}
		var out []storage.Row
		for _, r := range concatRows(in) {
			k := refKey(r, idx)
			if !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return [][]storage.Row{out}, nil
	case *groupByNode:
		in, err := refEval(n.child, loops)
		if err != nil {
			return nil, err
		}
		return [][]storage.Row{refGroupBy(n, concatRows(in))}, nil
	case *sortNode:
		in, err := refEval(n.child, loops)
		if err != nil {
			return nil, err
		}
		rows := append([]storage.Row(nil), concatRows(in)...)
		schema := n.child.schema()
		sort.SliceStable(rows, func(a, b int) bool {
			for _, o := range n.orders {
				i := schema.IndexOf(o.Column)
				c := storage.CompareValues(rows[a][i], rows[b][i])
				if o.Descending {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		return [][]storage.Row{rows}, nil
	case *joinNode:
		return refJoin(n, loops)
	case *iterateNode:
		return refIterate(n, loops)
	default:
		return nil, fmt.Errorf("reference: unsupported node %T", node)
	}
}

// refCollect evaluates d and concatenates its partitions, like Collect.
func refCollect(d *Dataset) ([]storage.Row, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	parts, err := refEval(d.node, map[*loopSourceNode][][]storage.Row{})
	if err != nil {
		return nil, err
	}
	return concatRows(parts), nil
}

func concatRows(parts [][]storage.Row) []storage.Row {
	var out []storage.Row
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func columnIndices(schema *storage.Schema, cols []string) []int {
	if len(cols) == 0 {
		idx := make([]int, schema.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = schema.IndexOf(c)
	}
	return idx
}

// refKey renders the values of row at idx as a map key under the reference
// equality (see the file comment).
func refKey(row storage.Row, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		switch v := row[i].(type) {
		case nil:
			sb.WriteString("n|")
		case int64:
			sb.WriteString("i" + strconv.FormatInt(v, 10) + "|")
		case float64:
			if v == 0 {
				v = 0
			}
			sb.WriteString("f" + strconv.FormatUint(math.Float64bits(v), 16) + "|")
		case string:
			sb.WriteString("s" + strconv.Quote(v) + "|")
		case bool:
			sb.WriteString("b" + strconv.FormatBool(v) + "|")
		default:
			sb.WriteString(fmt.Sprintf("?%v|", v))
		}
	}
	return sb.String()
}

// refNarrow applies one narrow operator to partition p's rows.
func refNarrow(node planNode, p int, rows []storage.Row) ([]storage.Row, error) {
	var out []storage.Row
	switch n := node.(type) {
	case *filterNode:
		for _, r := range rows {
			keep, err := n.fn(Record{schema: n.child.schema(), row: r})
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, r)
			}
		}
	case *mapNode:
		for _, r := range rows {
			nr, err := n.fn(Record{schema: n.child.schema(), row: r})
			if err != nil {
				return nil, err
			}
			if err := storage.ValidateRow(n.out, nr); err != nil {
				return nil, err
			}
			out = append(out, nr)
		}
	case *flatMapNode:
		for _, r := range rows {
			produced, err := n.fn(Record{schema: n.child.schema(), row: r})
			if err != nil {
				return nil, err
			}
			for _, nr := range produced {
				if err := storage.ValidateRow(n.out, nr); err != nil {
					return nil, err
				}
				out = append(out, nr)
			}
		}
	case *projectNode:
		for _, r := range rows {
			nr := make(storage.Row, len(n.indices))
			for i, idx := range n.indices {
				nr[i] = r[idx]
			}
			out = append(out, nr)
		}
	case *withColumnNode:
		for _, r := range rows {
			v, err := n.fn(Record{schema: n.child.schema(), row: r})
			if err != nil {
				return nil, err
			}
			if err := storage.ValidateCell(n.field, v); err != nil {
				return nil, err
			}
			nr := append(storage.Row{}, r...)
			if n.replace >= 0 {
				nr[n.replace] = v
			} else {
				nr = append(nr, v)
			}
			out = append(out, nr)
		}
	case *sampleNode:
		rng := rand.New(rand.NewSource(n.seed + int64(p)))
		for _, r := range rows {
			if rng.Float64() < n.fraction {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

func refGroupBy(n *groupByNode, rows []storage.Row) []storage.Row {
	schema := n.child.schema()
	keyIdx := columnIndices(schema, n.keys)
	groups := map[string][]storage.Row{}
	var order []string
	for _, r := range rows {
		k := refKey(r, keyIdx)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]storage.Row, 0, len(order))
	for _, k := range order {
		members := groups[k]
		row := make(storage.Row, 0, len(keyIdx)+len(n.aggs))
		for _, i := range keyIdx {
			row = append(row, members[0][i])
		}
		for _, a := range n.aggs {
			row = append(row, refAggregate(a, schema, members))
		}
		out = append(out, row)
	}
	return out
}

// refAggregate computes one aggregate over a group's rows.
func refAggregate(a Aggregation, schema *storage.Schema, rows []storage.Row) storage.Value {
	if a.Kind == AggCount {
		return int64(len(rows))
	}
	col := schema.IndexOf(a.Column)
	var vals []storage.Value
	for _, r := range rows {
		if r[col] != nil {
			vals = append(vals, r[col])
		}
	}
	var sum, sumSq float64
	for _, v := range vals {
		f, _ := storage.AsFloat(v)
		sum += f
		sumSq += f * f
	}
	count := float64(len(vals))
	switch a.Kind {
	case AggSum:
		return sum
	case AggAvg:
		if len(vals) == 0 {
			return nil
		}
		return sum / count
	case AggStdDev:
		if len(vals) == 0 {
			return nil
		}
		mean := sum / count
		return math.Sqrt(math.Max(sumSq/count-mean*mean, 0))
	case AggMin, AggMax:
		var best storage.Value
		for _, v := range vals {
			c := storage.CompareValues(v, best)
			if best == nil || (a.Kind == AggMin && c < 0) || (a.Kind == AggMax && c > 0) {
				best = v
			}
		}
		return best
	case AggCountDistinct:
		set := map[string]bool{}
		for _, v := range vals {
			set[storage.AsString(v)] = true
		}
		return int64(len(set))
	}
	return nil
}

func refJoin(n *joinNode, loops map[*loopSourceNode][][]storage.Row) ([][]storage.Row, error) {
	leftParts, err := refEval(n.left, loops)
	if err != nil {
		return nil, err
	}
	rightParts, err := refEval(n.right, loops)
	if err != nil {
		return nil, err
	}
	lIdx := []int{n.left.schema().IndexOf(n.leftKey)}
	rIdx := []int{n.right.schema().IndexOf(n.rightKey)}
	build := map[string][]storage.Row{}
	for _, r := range concatRows(rightParts) {
		k := refKey(r, rIdx)
		build[k] = append(build[k], r)
	}
	rightWidth := n.right.schema().Len()
	var out []storage.Row
	for _, l := range concatRows(leftParts) {
		matches := build[refKey(l, lIdx)]
		if len(matches) == 0 && n.kind == LeftJoin {
			out = append(out, append(append(storage.Row{}, l...), make(storage.Row, rightWidth)...))
		}
		for _, r := range matches {
			out = append(out, append(append(storage.Row{}, l...), r...))
		}
	}
	return [][]storage.Row{out}, nil
}

// refIterate re-evaluates the body until its convergence predicate holds
// between two successive states (compared as concatenated rows) or maxIter
// passes ran.
func refIterate(n *iterateNode, loops map[*loopSourceNode][][]storage.Row) ([][]storage.Row, error) {
	state, err := refEval(n.init, loops)
	if err != nil {
		return nil, err
	}
	schema := n.schema()
	cols := columnIndices(schema, nil)
	if n.conv == convKeys {
		cols = columnIndices(schema, n.keyCols)
	}
	converged := false
	for i := 0; i < n.maxIter && !converged; i++ {
		inner := make(map[*loopSourceNode][][]storage.Row, len(loops)+1)
		for k, v := range loops {
			inner[k] = v
		}
		inner[n.loop] = state
		next, err := refEval(n.body, inner)
		if err != nil {
			return nil, err
		}
		prev, cur := concatRows(state), concatRows(next)
		converged = len(prev) == len(cur)
		for r := 0; converged && r < len(cur); r++ {
			if n.conv == convEpsilon {
				e := schema.IndexOf(n.epsCol)
				pf, pok := storage.AsFloat(prev[r][e])
				cf, cok := storage.AsFloat(cur[r][e])
				converged = pok == cok && (!pok || math.Abs(cf-pf) <= n.epsilon)
			} else {
				converged = refKey(prev[r], cols) == refKey(cur[r], cols)
			}
		}
		state = next
	}
	if !converged && n.requireConverged {
		return nil, ErrNotConverged
	}
	return state, nil
}
