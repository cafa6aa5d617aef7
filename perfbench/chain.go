package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/labs"
	obs "repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

func chainSizingStamp() map[string]int {
	s := labsSizingStamp()
	s["verticals"] = 3
	return s
}

// chainStep is one campaign of the results chain. Producers read generated
// tables; consumers read a producer's stored result.
type chainStep struct {
	class string
	camp  *model.Campaign
}

// chainSteps returns the three producer challenges and two consumers of
// their stored results.
func chainSteps() []chainStep {
	var steps []chainStep
	for _, ch := range labs.BuiltinChallenges() {
		switch ch.ID {
		case "telco-churn", "energy-forecast", "web-funnel":
			steps = append(steps, chainStep{class: "produce", camp: ch.Campaign})
		}
	}
	telco := runner.ResultTableName("telco-churn")
	energy := runner.ResultTableName("energy-forecast")
	steps = append(steps,
		chainStep{class: "consume", camp: &model.Campaign{
			Name:     "telco-report",
			Vertical: string(workload.VerticalTelco),
			Goal: model.Goal{Task: model.TaskReporting, TargetTable: telco,
				GroupColumns: []string{"region", "plan"}, ValueColumn: "monthly_charge"},
			Sources: []model.DataSource{{Table: telco, ContainsPersonalData: true, Region: "eu"}},
			Objectives: []model.Objective{
				{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5, Hard: true},
			},
			Regime: model.RegimePseudonymize,
		}},
		chainStep{class: "consume", camp: &model.Campaign{
			Name:     "energy-trend",
			Vertical: string(workload.VerticalEnergy),
			Goal: model.Goal{Task: model.TaskForecasting, TargetTable: energy,
				ValueColumn: "kwh", TimeColumn: "read_at"},
			Sources: []model.DataSource{{Table: energy, ContainsPersonalData: true, Region: "eu"}},
			Objectives: []model.Objective{
				{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5},
			},
			Regime: model.RegimeStrict,
		}},
	)
	return steps
}

// resultsChain is two clients on a store-backed stack: producers save
// results/<campaign>, consumers read a stored result and save their own.
// At the end of a run the store is closed and reopened, and every
// acknowledged table must come back with its row count.
type resultsChain struct {
	*stack
	steps   []chainStep
	order   *cycleOrder
	corrupt bool

	dir  string
	fs   *countingFS
	st   *store.Store
	opts []store.Option

	mu    sync.Mutex
	acked map[string]int // table -> acknowledged row count

	consumes            atomic.Int64
	fsBefore, fsAfter   fsCounts
	regBefore, regAfter obs.Snapshot
	recovery            time.Duration
	spaceAmp            float64
}

func newResultsChain(cfg runConfig) (instance, error) {
	data := storage.NewCatalog()
	gen := workload.NewGenerator(cfg.seed)
	for _, v := range []workload.Vertical{workload.VerticalTelco, workload.VerticalEnergy, workload.VerticalWeb} {
		sc, err := gen.Generate(v, labsSizing)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", v, err)
		}
		if err := sc.Register(data); err != nil {
			return nil, err
		}
	}
	steps := chainSteps()
	c := &resultsChain{steps: steps, order: newCycleOrder(cfg.seed, len(steps)), corrupt: cfg.corrupt,
		dir: filepath.Join(cfg.dir, "store"), acked: map[string]int{}}
	if cfg.tr != nil {
		c.fs = &countingFS{FS: store.OSFS{}}
		c.opts = append(c.opts, store.WithFS(c.fs))
	}
	st, err := store.Open(c.dir, c.opts...)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	c.st = st
	if c.stack, err = newStack(data, cfg, st); err != nil {
		st.Close()
		return nil, err
	}
	return c, nil
}

func (c *resultsChain) clients() int { return 2 }

// warm produces every result once, untraced, so consumers always find their
// source table.
func (c *resultsChain) warm(ctx context.Context) error {
	plain := *c.stack
	plain.tr = nil
	for i, s := range c.steps {
		if s.class != "produce" {
			continue
		}
		camp := *s.camp
		if _, _, err := plain.execute(ctx, int64(-1-i), &camp, chosen); err != nil {
			return fmt.Errorf("%s: %w", s.camp.Name, err)
		}
	}
	c.fsBefore = c.fsSnapshot()
	c.regBefore = c.st.Metrics().Snapshot()
	c.consumes.Store(0)
	return nil
}

func chosen(res *core.CompileResult) (core.Alternative, string, error) {
	return res.Chosen, res.Campaign.Name, nil
}

func (c *resultsChain) fsSnapshot() fsCounts {
	if c.fs == nil {
		return fsCounts{}
	}
	return c.fs.snapshot()
}

func (c *resultsChain) op(ctx context.Context, seq int64) opResult {
	i, _ := c.order.at(seq)
	s := c.steps[i]
	camp := *s.camp
	rep, kind, err := c.execute(ctx, seq, &camp, chosen)
	if err != nil {
		return opResult{kind: kind, class: s.class, err: err}
	}
	if s.class == "consume" {
		c.consumes.Add(1)
	}
	table := runner.ResultTableName(camp.Name)
	rows := rep.RowsProcessed
	if c.corrupt {
		rows++
	}
	if rep.Details["store.table"] != table {
		return opResult{kind: kind, class: s.class, err: fmt.Errorf("output check: result saved as %q, want %q", rep.Details["store.table"], table)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.acked[table]; ok && want != rows {
		return opResult{kind: kind, class: s.class, err: fmt.Errorf("output check: %s saved %d rows, earlier runs saved %d", table, rows, want)}
	}
	c.acked[table] = rows
	return opResult{kind: kind, class: s.class}
}

// finish closes the store and reopens it: every acknowledged table must be
// present with its row count, and nothing may be quarantined. It counts
// each missing or mismatched table as one failure.
func (c *resultsChain) finish(context.Context) (int, error) {
	c.fsAfter = c.fsSnapshot()
	c.regAfter = c.st.Metrics().Snapshot()
	c.spaceAmp = c.segmentSpaceAmp()
	if err := c.st.Close(); err != nil {
		return len(c.acked), fmt.Errorf("close store: %w", err)
	}
	t0 := time.Now()
	st, err := store.Open(c.dir, c.opts...)
	c.recovery = time.Since(t0)
	if err != nil {
		return len(c.acked), fmt.Errorf("reopen store: %w", err)
	}
	c.st = st
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	if q := st.Quarantined(); len(q) > 0 {
		errs = append(errs, fmt.Errorf("quarantined after reopen: %v", q))
	}
	failed := 0
	tables := make([]string, 0, len(c.acked))
	for t := range c.acked {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		info, err := st.Info(t)
		switch {
		case err != nil:
			failed++
			errs = append(errs, fmt.Errorf("%s: %w", t, err))
		case info.Rows != c.acked[t]:
			failed++
			errs = append(errs, fmt.Errorf("%s: %d rows after reopen, %d acknowledged", t, info.Rows, c.acked[t]))
		}
	}
	if failed == 0 && len(errs) > 0 {
		failed = 1
	}
	return failed, errors.Join(errs...)
}

// segmentSpaceAmp is the bytes of segment files on disk over the bytes of
// the live tables' segments.
func (c *resultsChain) segmentSpaceAmp() float64 {
	var live int64
	for _, t := range c.st.Tables() {
		live += t.Bytes
	}
	var onDisk int64
	entries, _ := os.ReadDir(filepath.Join(c.dir, "segs"))
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			onDisk += info.Size()
		}
	}
	if live == 0 {
		return 0
	}
	return float64(onDisk) / float64(live)
}

func (c *resultsChain) layers(_ context.Context, m metrics) error {
	setLayers(c.tr, m)
	fs := c.fsAfter.minus(c.fsBefore)
	delta := func(name string) float64 {
		return float64(c.regAfter.CounterValue(name) - c.regBefore.CounterValue(name))
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	saves := delta("store.tables.saved")
	consumes := float64(c.consumes.Load())
	m.set("store.fsyncs_per_save", "count", per(float64(fs.syncs), saves))
	m.set("store.sync_ms", "ms", per(float64(fs.syncNanos)/1e6, saves))
	m.set("store.bytes_written_per_row", "B", per(float64(fs.written), c.tr.sum("runner.rows")))
	m.set("store.read_io_ms", "ms", per(float64(fs.readNanos)/1e6, consumes))
	m.set("store.read_bytes_per_row", "B", per(float64(fs.read), delta("store.scan.rows")))
	m.set("store.frames_scanned", "count", per(delta("store.frames.scanned"), consumes))
	m.set("store.frames_skipped", "count", per(delta("store.frames.skipped"), consumes))
	m.set("store.wal_records", "count", delta("store.wal.records"))
	m.set("store.checkpoints", "count", delta("store.wal.checkpoints"))
	m.set("store.recovery_ms", "ms", ms(c.recovery))
	m.set("store.space_amp", "ratio", c.spaceAmp)
	return nil
}

func (c *resultsChain) close() error {
	return errors.Join(c.stack.close(), c.st.Close())
}
