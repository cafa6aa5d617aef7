package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// span is one timed interval around a layer call. Spans of one operation
// share Op; Parent is the id of the span that caused it (0 for an op root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opBinding lets the runner shim find the operation a service worker is
// executing: every operation submits its own campaign value.
type opBinding struct {
	op, parent int64
	submitted  time.Time
	attempts   int
}

type accum struct {
	sum float64
	n   int
}

// tracer keeps spans and per-layer samples in memory for one traced run.
// Every method is a no-op on a nil tracer, which is what untraced runs use.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  int64
	spans   []span
	ops     map[*model.Campaign]*opBinding
	samples map[string]map[string]*accum // metric -> kind -> accumulator

	alloc allocWindow
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		ops:     map[*model.Campaign]*opBinding{},
		samples: map[string]map[string]*accum{},
	}
}

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// child records a finished span under a fresh id and returns the id.
func (t *tracer) child(parent, op int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, op, name, start, end)
	return id
}

// add records one sample of a per-layer metric for an operation kind. The
// metric's value is the mean over kinds of each kind's mean, so a count that
// is fixed per kind repeats exactly however many operations of each kind a
// timed run completes. Timings pass kind "" and average over all samples.
func (t *tracer) add(metric, kind string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byKind := t.samples[metric]
	if byKind == nil {
		byKind = map[string]*accum{}
		t.samples[metric] = byKind
	}
	a := byKind[kind]
	if a == nil {
		a = &accum{}
		byKind[kind] = a
	}
	a.sum += v
	a.n++
}

// value returns the metric as described at add; 0 when never sampled.
func (t *tracer) value(metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKind := t.samples[metric]
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var means []float64
	for _, k := range kinds {
		means = append(means, byKind[k].sum/float64(byKind[k].n))
	}
	return mean(means)
}

// sum returns the total of every sample of a metric.
func (t *tracer) sum(metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, a := range t.samples[metric] {
		s += a.sum
	}
	return s
}

func (t *tracer) bind(c *model.Campaign, op, parent int64, submitted time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops[c] = &opBinding{op: op, parent: parent, submitted: submitted}
}

// attempt returns the binding of c, whether this is its first attempt, and
// whether c is bound at all (untraced warm-up operations are not).
func (t *tracer) attempt(c *model.Campaign) (b opBinding, first, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.ops[c]
	if p == nil {
		return opBinding{}, false, false
	}
	p.attempts++
	return *p, p.attempts == 1, true
}

func (t *tracer) unbind(c *model.Campaign) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.ops, c)
}

// selfTimes returns, per span name, the mean self time in milliseconds: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sums := map[string]*accum{}
	for _, s := range t.spans {
		self := float64(s.End-s.Start) - covered(s, children[s.ID])
		a := sums[s.Name]
		if a == nil {
			a = &accum{}
			sums[s.Name] = a
		}
		a.sum += self / 1e6
		a.n++
	}
	out := map[string]float64{}
	for name, a := range sums {
		out[name] = a.sum / float64(a.n)
	}
	return out
}

// covered returns the nanoseconds of parent's interval covered by the union
// of the children's intervals.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := json.Marshal(map[string]any{"epoch": t.epoch, "spans": t.spans})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// allocWindow is the process-wide allocation delta over the traced phase.
type allocWindow struct {
	before, after runtime.MemStats
}

func (w *allocWindow) start() { runtime.ReadMemStats(&w.before) }
func (w *allocWindow) stop()  { runtime.ReadMemStats(&w.after) }

func (w *allocWindow) mallocs() float64 { return float64(w.after.Mallocs - w.before.Mallocs) }
func (w *allocWindow) bytes() float64   { return float64(w.after.TotalAlloc - w.before.TotalAlloc) }
