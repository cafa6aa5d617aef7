package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/store"
)

// stack is the compiler → service → runner assembly the service-backed
// workloads share. It is built the way the root package's New builds a
// platform, except that the benchmark owns it, so the traced run can hand
// the service the timing runner shim.
type stack struct {
	compiler *core.Compiler
	svc      *service.Service
	tr       *tracer
}

// newStack assembles the layers over the data catalog; st, when non-nil, is
// the durable store campaigns read sources from and save results to.
func newStack(data *storage.Catalog, cfg runConfig, st *store.Store) (*stack, error) {
	spill := filepath.Join(cfg.dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, fmt.Errorf("create spill dir: %w", err)
	}
	var compilerOpts []core.Option
	runnerOpts := []runner.Option{runner.WithSeed(cfg.seed), runner.WithSpillDir(spill)}
	if st != nil {
		compilerOpts = append(compilerOpts, core.WithDurableStore(st))
		runnerOpts = append(runnerOpts, runner.WithResultStore(st))
	}
	compiler, err := core.NewCompiler(data, compilerOpts...)
	if err != nil {
		return nil, err
	}
	run, err := runner.New(data, runnerOpts...)
	if err != nil {
		return nil, err
	}
	var sr service.Runner = run
	if cfg.tr != nil {
		sr = &timingRunner{next: run, tr: cfg.tr, saves: st != nil}
	}
	svc, err := service.New(sr, service.Config{Workers: serviceWorkers, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	return &stack{compiler: compiler, svc: svc, tr: cfg.tr}, nil
}

// serviceWorkers equals the client count of the service-backed workloads, so
// queue wait should stay near zero.
const serviceWorkers = 2

// picker chooses the alternative an operation runs from the compile result
// and names the operation's kind.
type picker func(*core.CompileResult) (core.Alternative, string, error)

// execute runs one operation through the stack: Compile, Service.Submit,
// Ticket.Wait. The campaign must be a value private to this operation.
func (s *stack) execute(ctx context.Context, seq int64, camp *model.Campaign, pick picker) (*runner.Report, string, error) {
	op := seq + 1
	root := s.tr.id()
	start := time.Now()
	defer func() { s.tr.record(root, 0, op, "op", start, time.Now()) }()

	res, err := s.compiler.Compile(camp)
	compiled := time.Now()
	s.tr.child(root, op, "core.compile", start, compiled)
	if err != nil {
		return nil, "", fmt.Errorf("compile: %w", err)
	}
	alt, kind, err := pick(res)
	if err != nil {
		return nil, "", err
	}
	s.recordCompile(kind, res)

	submitted := time.Now()
	s.tr.bind(camp, op, root, submitted)
	defer s.tr.unbind(camp)
	ticket, err := s.svc.Submit("trainee", camp, alt)
	waitStart := time.Now()
	s.tr.child(root, op, "service.submit", submitted, waitStart)
	if err != nil {
		return nil, kind, fmt.Errorf("submit: %w", err)
	}
	err = ticket.Wait(ctx)
	s.tr.child(root, op, "service.wait", waitStart, time.Now())
	if err != nil {
		return nil, kind, fmt.Errorf("wait: %w", err)
	}
	rep, err := ticket.Result()
	if err != nil {
		return nil, kind, fmt.Errorf("ticket %s: %w", ticket.Status(), err)
	}
	if ticket.Status() != service.StatusCompleted {
		return nil, kind, fmt.Errorf("ticket ended %s", ticket.Status())
	}
	s.tr.add("service.attempts_per_op", "", float64(ticket.Attempts()))
	recordReport(s.tr, kind, rep, alt.Plan.Nodes*alt.Plan.SlotsPerNode)
	return rep, kind, nil
}

// recordCompile adds the compiler's own phase timings. Comply and bind are
// interleaved per alternative, so only their measured sum is reported.
func (s *stack) recordCompile(kind string, res *core.CompileResult) {
	t := res.Timings
	s.tr.add("core.validate_ms", "", ms(t.Validate))
	s.tr.add("core.match_ms", "", ms(t.Match))
	s.tr.add("core.compose_ms", "", ms(t.Compose))
	s.tr.add("core.elaborate_ms", "", ms(t.Comply+t.Bind))
	s.tr.add("core.alternatives", kind, float64(len(res.Alternatives)))
}

func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.svc.Shutdown(ctx)
}

// recordReport adds the runner, dataflow, spill and cluster counters of one
// run report. slots is the run's cluster size.
func recordReport(tr *tracer, kind string, rep *runner.Report, slots int) {
	if tr == nil {
		return
	}
	tr.add("runner.exec_ms", "", ms(rep.WallTime))
	tr.add("runner.rows", kind, float64(rep.RowsProcessed))
	recordEngine(tr, kind, rep.EngineStats)
	var busy float64
	for _, s := range rep.ClusterUsage.BusySlotSeconds {
		busy += s
	}
	recordCluster(tr, kind, rep.ClusterUsage.TasksRun, rep.ClusterUsage.Retries, busy, slots, rep.WallTime)
}

func recordCluster(tr *tracer, kind string, tasks, retries int64, busySeconds float64, slots int, wall time.Duration) {
	tr.add("cluster.tasks", kind, float64(tasks))
	tr.add("cluster.task_busy_ms", "", busySeconds*1000)
	if slots > 0 && wall > 0 {
		tr.add("cluster.utilisation", "", busySeconds/(float64(slots)*wall.Seconds()))
	}
	if tasks > 0 {
		tr.add("cluster.attempts_per_task", kind, float64(tasks+retries)/float64(tasks))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cycleOrder is a seeded operation sequence over n items: every cycle of n
// operations visits each item once, in a fresh seeded order, so any run
// covers the items evenly whatever its length.
type cycleOrder struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	order [][]int
}

func newCycleOrder(seed int64, n int) *cycleOrder {
	return &cycleOrder{rng: rand.New(rand.NewSource(seed)), n: n}
}

// at returns the item of operation seq and the cycle it belongs to.
func (c *cycleOrder) at(seq int64) (item, cycle int) {
	cycle = int(seq / int64(c.n))
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.order) <= cycle {
		c.order = append(c.order, c.rng.Perm(c.n))
	}
	return c.order[cycle][seq%int64(c.n)], cycle
}
