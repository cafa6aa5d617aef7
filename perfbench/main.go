// Command perfbench is the repository benchmark. It assembles the TOREADOR
// layers itself (compiler, service, runner, dataflow engine, cluster, durable
// store), drives one of three seeded workloads for a fixed number of seconds
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 the run is split into an untraced third and a traced two thirds,
// and the metrics are the per-layer ones taken from spans and counters
// recorded around the layer calls, plus the tracing overhead on each
// end-to-end metric. A metadata line (machine, sizing, sample counts, tail
// latency, error rate) precedes the result.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload labs-explore --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is the
// median of these builds and the last one is measured.
const setupRepeats = 5

// runConfig is everything a workload needs to build itself.
type runConfig struct {
	seed int64
	// dir is a private scratch directory for store files and spill files.
	dir string
	// tr is nil in untraced runs; traced runs wire the benchmark's shims
	// into the assembly and record spans into it.
	tr *tracer
	// corrupt makes every output check see a wrong value (self-test of the
	// error accounting).
	corrupt bool
}

// opResult is what one operation reports back to the load loop.
type opResult struct {
	// kind identifies the operation's deterministic shape (same kind, same
	// inputs, same counters); class groups kinds for per-class latencies.
	kind, class string
	err         error
}

// instance is one assembled workload.
type instance interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// warm runs untimed operations that later operations depend on.
	warm(ctx context.Context) error
	// op runs the operation with sequence number seq and checks its output.
	op(ctx context.Context, seq int64) opResult
	// finish runs the end-of-run checks; it returns how many acknowledged
	// results failed them.
	finish(ctx context.Context) (int, error)
	// layers adds the workload's per-layer metrics (traced runs only).
	layers(ctx context.Context, m metrics) error
	close() error
}

type workloadSpec struct {
	build func(runConfig) (instance, error)
	// sizing is stamped into the result metadata.
	sizing map[string]int
}

var workloads = map[string]workloadSpec{
	"labs-explore":  {build: newLabsExplore, sizing: labsSizingStamp()},
	"results-chain": {build: newResultsChain, sizing: chainSizingStamp()},
	"engine-spill":  {build: newEngineSpill, sizing: spillSizingStamp()},
}

func main() {
	workload := flag.String("workload", "", "workload name: labs-explore, results-chain or engine-spill")
	seed := flag.Int64("seed", 1, "seed for generated inputs and operation sequences")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()

	spec, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, meta, err := run(context.Background(), spec, options{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, workDir: ".bench_build",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"meta": meta}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workDir  string
	// maxOps, when positive, ends the measured phase after that many
	// operations instead of after seconds (self-tests).
	maxOps  int64
	corrupt bool
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func run(ctx context.Context, spec workloadSpec, o options) (result, map[string]any, error) {
	base, err := filepath.Abs(o.workDir)
	if err != nil {
		return result{}, nil, err
	}
	scratch := filepath.Join(base, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), o.workload, o.seed))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, nil, fmt.Errorf("create scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)

	meta := stamp(o, spec)
	if !o.traced {
		return runUntraced(ctx, spec, o, scratch, meta)
	}
	return runTraced(ctx, spec, o, scratch, base, meta)
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, spec workloadSpec, o options, scratch string, meta map[string]any) (result, map[string]any, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, nil, err
			}
			inst = nil
		}
		// Return the discarded build's memory, so every build and the
		// measured phase start from the same resident set.
		debug.FreeOSMemory()
		t0 := time.Now()
		in, err := spec.build(runConfig{seed: o.seed, dir: filepath.Join(scratch, fmt.Sprintf("setup-%d", i)), corrupt: o.corrupt})
		if err != nil {
			return result{}, nil, fmt.Errorf("set up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()
	debug.FreeOSMemory()

	ph, err := measure(ctx, inst, o.seconds, o.maxOps)
	if err != nil {
		return result{}, nil, err
	}
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	ph.endToEnd(m)
	meta["rss_high_water_mb"] = highWaterRSSMB()
	meta["setup_s_samples"] = setups
	ph.describe(meta)
	return ph.result(m), meta, nil
}

// runTraced measures a third of the time untraced and two thirds traced,
// then reports the per-layer metrics of the traced phase and the tracing
// overhead on each end-to-end metric. The traced phase is the longer one so
// that every operation kind of labs-explore (one per challenge and
// alternative) runs in it and the per-kind counts repeat exactly.
func runTraced(ctx context.Context, spec workloadSpec, o options, scratch, base string, meta map[string]any) (result, map[string]any, error) {
	plainSeconds, tracedSeconds := o.seconds/3, o.seconds*2/3
	t0 := time.Now()
	plain, err := spec.build(runConfig{seed: o.seed, dir: filepath.Join(scratch, "untraced"), corrupt: o.corrupt})
	if err != nil {
		return result{}, nil, fmt.Errorf("set up: %w", err)
	}
	plainSetup := time.Since(t0).Seconds()
	untraced, err := measure(ctx, plain, plainSeconds, o.maxOps)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, nil, err
	}
	debug.FreeOSMemory()

	tr := newTracer()
	t0 = time.Now()
	inst, err := spec.build(runConfig{seed: o.seed, dir: filepath.Join(scratch, "traced"), tr: tr, corrupt: o.corrupt})
	if err != nil {
		return result{}, nil, fmt.Errorf("set up traced: %w", err)
	}
	tracedSetup := time.Since(t0).Seconds()
	defer inst.close()
	traced, err := measureTraced(ctx, inst, tr, tracedSeconds, o.maxOps)
	if err != nil {
		return result{}, nil, err
	}
	m := metrics{}
	if err := inst.layers(ctx, m); err != nil {
		return result{}, nil, err
	}
	m.set("produce_p50_ms", "ms", untraced.classP50("produce"))
	m.set("consume_p50_ms", "ms", untraced.classP50("consume"))
	plainM, tracedM := metrics{}, metrics{}
	plainM.set("setup_s", "s", plainSetup)
	tracedM.set("setup_s", "s", tracedSetup)
	untraced.endToEnd(plainM)
	traced.endToEnd(tracedM)
	for _, name := range []string{"setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"} {
		m.set("trace.overhead."+name, "%", 100*(tracedM[name].Value/plainM[name].Value-1))
	}
	meta["untraced"] = plainM
	meta["traced"] = tracedM
	traced.describe(meta)
	path := filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, nil, err
	}
	meta["trace_file"] = path
	res := traced.result(m)
	// Both phases are real runs: their operations and failures all count.
	res.Attempted += untraced.attempted()
	res.Failed += untraced.failedOps()
	res.Correct = res.Failed == 0
	return res, meta, nil
}

func measureTraced(ctx context.Context, inst instance, tr *tracer, seconds float64, maxOps int64) (*phase, error) {
	tr.alloc.start()
	ph, err := measure(ctx, inst, seconds, maxOps)
	tr.alloc.stop()
	return ph, err
}

// opRecord is one measured operation.
type opRecord struct {
	seq         int64
	kind, class string
	start       time.Time
	latency     time.Duration
	err         error
}

// phase is the outcome of one measured load phase.
type phase struct {
	ops       []opRecord
	elapsed   time.Duration
	rss       []rssSample
	checkFail int
	checkErr  error
}

// measure warms the instance, then drives it with its closed-loop clients
// until the time (or operation) budget is spent, waits for in-flight
// operations, and runs the end-of-run checks.
func measure(ctx context.Context, inst instance, seconds float64, maxOps int64) (*phase, error) {
	if err := inst.warm(ctx); err != nil {
		return nil, fmt.Errorf("warm up: %w", err)
	}
	var (
		next sync.Mutex
		seq  int64
		mu   sync.Mutex
		ph   = &phase{}
		wg   sync.WaitGroup
	)
	sampler := startRSSSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	take := func() (int64, bool) {
		next.Lock()
		defer next.Unlock()
		if maxOps > 0 {
			if seq >= maxOps {
				return 0, false
			}
		} else if !time.Now().Before(deadline) {
			return 0, false
		}
		seq++
		return seq - 1, true
	}
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				r := inst.op(ctx, s)
				rec := opRecord{seq: s, kind: r.kind, class: r.class, start: t0, latency: time.Since(t0), err: r.err}
				mu.Lock()
				ph.ops = append(ph.ops, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.rss = sampler.stop()
	sort.Slice(ph.ops, func(i, j int) bool { return ph.ops[i].seq < ph.ops[j].seq })
	ph.checkFail, ph.checkErr = inst.finish(ctx)
	if len(ph.ops) == 0 {
		return nil, errors.New("no operation completed")
	}
	return ph, nil
}

func (ph *phase) attempted() int64 { return int64(len(ph.ops)) }

func (ph *phase) failedOps() int64 {
	n := int64(ph.checkFail)
	for _, r := range ph.ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

func (ph *phase) latencies(class string) []float64 {
	var out []float64
	for _, r := range ph.ops {
		if class == "" || r.class == class {
			out = append(out, float64(r.latency)/float64(time.Millisecond))
		}
	}
	return out
}

func (ph *phase) classP50(class string) float64 {
	l := ph.latencies(class)
	if len(l) == 0 {
		return 0
	}
	return median(l)
}

func (ph *phase) endToEnd(m metrics) {
	m.set("op_p50_ms", "ms", median(ph.latencies("")))
	var ok int
	for _, r := range ph.ops {
		if r.err == nil {
			ok++
		}
	}
	m.set("ops_per_s", "1/s", float64(ok)/ph.elapsed.Seconds())
	m.set("peak_rss_mb", "MB", ph.opPeakRSS())
}

// describe adds sample counts, the tail percentile where enough samples lie
// beyond it, per-class latencies and the error accounting to meta.
func (ph *phase) describe(meta map[string]any) {
	lat := ph.latencies("")
	meta["ops"] = len(lat)
	meta["measured_s"] = ph.elapsed.Seconds()
	meta["error_rate"] = float64(ph.failedOps()) / float64(len(ph.ops))
	if p, name, beyond := tailPercentile(lat); name != "" {
		meta["op_"+name+"_ms"] = map[string]any{"value": p, "samples": len(lat), "beyond": beyond}
	} else {
		meta["op_p90_ms"] = fmt.Sprintf("omitted: %d ops leave fewer than ten beyond p90", len(lat))
	}
	byKind := map[string][]float64{}
	for _, r := range ph.ops {
		byKind[r.kind] = append(byKind[r.kind], float64(r.latency)/float64(time.Millisecond))
	}
	kinds := map[string]any{}
	for k, l := range byKind {
		kinds[k] = map[string]any{"p50_ms": median(l), "samples": len(l)}
	}
	meta["kinds"] = kinds
	classes := map[string]any{}
	for _, c := range []string{"produce", "consume"} {
		if l := ph.latencies(c); len(l) > 0 {
			classes[c] = map[string]any{"p50_ms": median(l), "samples": len(l)}
		}
	}
	if len(classes) > 0 {
		meta["classes"] = classes
	}
	var errs []string
	for _, r := range ph.ops {
		if r.err != nil && len(errs) < 5 {
			errs = append(errs, fmt.Sprintf("op %d (%s): %v", r.seq, r.kind, r.err))
		}
	}
	if ph.checkErr != nil {
		errs = append(errs, "end-of-run check: "+ph.checkErr.Error())
	}
	if len(errs) > 0 {
		meta["errors"] = errs
	}
}

func (ph *phase) result(m metrics) result {
	failed := ph.failedOps()
	return result{Correct: failed == 0, Attempted: ph.attempted(), Failed: failed, Metrics: m}
}

// opPeakRSS is the median over operations of the process's peak resident
// set while the operation ran, in MB. The process high-water mark is the
// maximum of one draw per garbage-collection cycle, so it swings with GC
// timing from run to run; the median per-operation peak does not.
func (ph *phase) opPeakRSS() float64 {
	var peaks []float64
	for _, r := range ph.ops {
		end := r.start.Add(r.latency)
		i := sort.Search(len(ph.rss), func(i int) bool { return !ph.rss[i].at.Before(r.start) })
		var peak int64
		for ; i < len(ph.rss) && !ph.rss[i].at.After(end); i++ {
			peak = max(peak, ph.rss[i].bytes)
		}
		if peak > 0 {
			peaks = append(peaks, float64(peak)/(1<<20))
		}
	}
	return median(peaks)
}
