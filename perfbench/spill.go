package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/storage"
)

// engine-spill sizing: the dimension is above the engine's 10k-row broadcast
// threshold, so the join shuffles, and the memory budget is well below the
// shuffle working set, so shuffle, aggregation and sort spill.
const (
	spillFacts      = 400_000
	spillKeys       = 50_000
	spillSegments   = 5_000
	spillTags       = 8
	spillBudget     = 8 << 20
	spillPartitions = 8
	// stageProbeRounds is how many times the traced run times each plan
	// prefix to attribute time to stages; the fastest round of each prefix
	// is used, which keeps short stages from drowning in machine noise.
	stageProbeRounds = 5
)

func spillSizingStamp() map[string]int {
	return map[string]int{"fact_rows": spillFacts, "keys": spillKeys, "dim_rows": spillKeys,
		"segments": spillSegments, "tags": spillTags, "memory_budget_bytes": spillBudget,
		"shuffle_partitions": spillPartitions, "clients": 1}
}

var (
	factSchema = storage.MustSchema(
		storage.Field{Name: "key", Type: storage.TypeInt},
		storage.Field{Name: "value", Type: storage.TypeFloat},
		storage.Field{Name: "tag", Type: storage.TypeString},
	)
	dimSchema = storage.MustSchema(
		storage.Field{Name: "key", Type: storage.TypeInt},
		storage.Field{Name: "segment", Type: storage.TypeString},
		storage.Field{Name: "weight", Type: storage.TypeFloat},
	)
)

// engineSpill runs one budgeted dataflow job per operation on a cluster with
// one slot per CPU and checks the result is bit-identical to a resident
// (unbudgeted) reference computed during set-up.
type engineSpill struct {
	cl      *cluster.Cluster
	engine  *dataflow.Engine
	slots   int
	facts   []storage.Row
	dims    []storage.Row
	want    []storage.Row
	tr      *tracer
	corrupt bool
}

func newEngineSpill(cfg runConfig) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	tags := make([]string, spillTags)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag-%d", i)
	}
	e := &engineSpill{tr: cfg.tr, corrupt: cfg.corrupt, slots: runtime.NumCPU()}
	e.facts = make([]storage.Row, spillFacts)
	for i := range e.facts {
		e.facts[i] = storage.Row{int64(rng.Intn(spillKeys)), rng.Float64() * 100, tags[rng.Intn(spillTags)]}
	}
	e.dims = make([]storage.Row, spillKeys)
	for k := range e.dims {
		e.dims[k] = storage.Row{int64(k), fmt.Sprintf("seg-%04d", rng.Intn(spillSegments)), rng.Float64()}
	}
	cfgc := cluster.Uniform(1, e.slots, 0)
	cfgc.Seed = cfg.seed
	cl, err := cluster.New(cfgc)
	if err != nil {
		return nil, err
	}
	e.cl = cl
	spill := filepath.Join(cfg.dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, fmt.Errorf("create spill dir: %w", err)
	}
	if e.engine, err = dataflow.NewEngine(cl, dataflow.WithShufflePartitions(spillPartitions),
		dataflow.WithMemoryBudget(spillBudget), dataflow.WithSpillDir(spill)); err != nil {
		return nil, err
	}
	resident, err := dataflow.NewEngine(cl, dataflow.WithShufflePartitions(spillPartitions))
	if err != nil {
		return nil, err
	}
	ref, err := resident.Collect(context.Background(), e.plan(stageSort))
	if err != nil {
		return nil, fmt.Errorf("resident reference: %w", err)
	}
	if ref.Stats.SpilledBatches != 0 || len(ref.Rows) == 0 {
		return nil, fmt.Errorf("resident reference spilled %d batches, %d rows", ref.Stats.SpilledBatches, len(ref.Rows))
	}
	e.want = ref.Rows
	return e, nil
}

// Plan prefixes, cut after each shuffle boundary.
const (
	stageNarrow = iota
	stageJoin
	stageGroupBy
	stageSort
)

// plan builds the job from the pre-generated rows, up to and including the
// given stage: WithColumn UDF → Filter → Join → GroupBy(segment, tag) → Sort.
// Building it converts and validates every source row, as every campaign's
// source does.
func (e *engineSpill) plan(upTo int) *dataflow.Dataset {
	facts := dataflow.FromRows("facts", factSchema, e.facts, spillPartitions)
	d := facts.
		WithColumn(storage.Field{Name: "score", Type: storage.TypeFloat}, func(r dataflow.Record) (storage.Value, error) {
			return r.Float("value")*1.5 + float64(r.Int("key")%7), nil
		}).
		Filter("score >= 12", func(r dataflow.Record) (bool, error) { return r.Float("score") >= 12, nil })
	if upTo == stageNarrow {
		return d
	}
	d = d.Join(dataflow.FromRows("dims", dimSchema, e.dims, spillPartitions), "key", "key", dataflow.InnerJoin)
	if upTo == stageJoin {
		return d
	}
	d = d.GroupBy("segment", "tag").Agg(dataflow.Count(), dataflow.Sum("score"), dataflow.Max("weight"))
	if upTo == stageGroupBy {
		return d
	}
	return d.Sort(dataflow.SortOrder{Column: "segment"}, dataflow.SortOrder{Column: "tag"})
}

func (e *engineSpill) clients() int                   { return 1 }
func (e *engineSpill) warm(ctx context.Context) error { return nil }

func (e *engineSpill) op(ctx context.Context, seq int64) opResult {
	const kind = "engine-spill"
	op := seq + 1
	root := e.tr.id()
	start := time.Now()
	defer func() { e.tr.record(root, 0, op, "op", start, time.Now()) }()

	before := e.cl.Usage()
	job := e.plan(stageSort)
	built := time.Now()
	e.tr.child(root, op, "dataflow.source", start, built)
	res, err := e.engine.Collect(ctx, job)
	e.tr.child(root, op, "dataflow.collect", built, time.Now())
	if err != nil {
		return opResult{kind: kind, err: err}
	}
	if e.tr != nil {
		after := e.cl.Usage()
		recordEngine(e.tr, kind, res.Stats)
		recordCluster(e.tr, kind, after.TasksRun-before.TasksRun, after.Retries-before.Retries,
			busySeconds(after)-busySeconds(before), e.slots, res.Stats.WallTime)
	}
	got := res.Rows
	if e.corrupt && len(got) > 0 {
		got = append([]storage.Row{append(storage.Row{"corrupted"}, got[0][1:]...)}, got[1:]...)
	}
	if err := sameRows(got, e.want); err != nil {
		return opResult{kind: kind, err: fmt.Errorf("output check: %w", err)}
	}
	return opResult{kind: kind}
}

func busySeconds(u cluster.UsageReport) float64 {
	var s float64
	for _, v := range u.BusySlotSeconds {
		s += v
	}
	return s
}

// sameRows reports the first difference between two row sets, comparing
// floats bit for bit.
func sameRows(got, want []storage.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d values, reference %d", i, len(got[i]), len(want[i]))
		}
		for j, v := range got[i] {
			w := want[i][j]
			if fv, ok := v.(float64); ok {
				if fw, ok := w.(float64); ok && math.Float64bits(fv) == math.Float64bits(fw) {
					continue
				}
			} else if v == w {
				continue
			}
			return fmt.Errorf("row %d column %d: %v, reference %v", i, j, v, w)
		}
	}
	return nil
}

func (e *engineSpill) finish(context.Context) (int, error) { return 0, nil }

// layers reports the counters of the traced operations, then attributes job
// time to stages by timing each plan prefix (cut after a shuffle boundary)
// and differencing consecutive prefixes.
func (e *engineSpill) layers(ctx context.Context, m metrics) error {
	setLayers(e.tr, m)
	times := make([][]float64, stageSort+1)
	for r := 0; r < stageProbeRounds; r++ {
		for cut := stageNarrow; cut <= stageSort; cut++ {
			job := e.plan(cut)
			t0 := time.Now()
			if _, err := e.engine.Count(ctx, job); err != nil {
				return fmt.Errorf("stage probe %d: %w", cut, err)
			}
			times[cut] = append(times[cut], ms(time.Since(t0)))
		}
	}
	prev := 0.0
	for cut, name := range []string{"narrow", "join", "groupby", "sort"} {
		t := slices.Min(times[cut])
		m.set("dataflow.stage."+name+"_ms", "ms", t-prev)
		prev = t
	}
	return nil
}

func (e *engineSpill) close() error { return nil }
