package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/workload"
)

// labsSizing is about four times the Labs default sizing.
var labsSizing = workload.Sizing{Customers: 8000, Meters: 40, Days: 30, Users: 800}

func labsSizingStamp() map[string]int {
	return map[string]int{"customers": labsSizing.Customers, "meters": labsSizing.Meters,
		"days": labsSizing.Days, "users": labsSizing.Users, "clients": 2, "service_workers": serviceWorkers}
}

// labsExplore is two simulated trainees scouting the built-in Labs
// challenges: each operation compiles a challenge, runs one of its compliant
// alternatives through the service and checks rows and accuracy against the
// first run of the same (challenge, alternative).
type labsExplore struct {
	*stack
	challenges []labs.Challenge
	order      *cycleOrder
	offset     []int // per challenge: seeded first alternative
	corrupt    bool

	mu   sync.Mutex
	seen map[string]labsOutcome
}

type labsOutcome struct {
	rows     int
	accuracy float64
}

func newLabsExplore(cfg runConfig) (instance, error) {
	data := storage.NewCatalog()
	gen := workload.NewGenerator(cfg.seed)
	for _, v := range workload.Verticals() {
		sc, err := gen.Generate(v, labsSizing)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", v, err)
		}
		if err := sc.Register(data); err != nil {
			return nil, err
		}
	}
	st, err := newStack(data, cfg, nil)
	if err != nil {
		return nil, err
	}
	challenges := labs.BuiltinChallenges()
	l := &labsExplore{stack: st, challenges: challenges, corrupt: cfg.corrupt, seen: map[string]labsOutcome{},
		order: newCycleOrder(cfg.seed, len(challenges))}
	rng := rand.New(rand.NewSource(cfg.seed))
	for range challenges {
		l.offset = append(l.offset, rng.Intn(1<<20))
	}
	return l, nil
}

func (l *labsExplore) clients() int                   { return 2 }
func (l *labsExplore) warm(ctx context.Context) error { return nil }

// pick returns the challenge of operation seq and the index of its compliant
// alternative: each cycle visits every challenge once and steps every
// challenge to its next alternative.
func (l *labsExplore) pick(seq int64) (labs.Challenge, int) {
	c, cycle := l.order.at(seq)
	return l.challenges[c], l.offset[c] + cycle
}

func (l *labsExplore) op(ctx context.Context, seq int64) opResult {
	ch, k := l.pick(seq)
	camp := *ch.Campaign
	rep, kind, err := l.execute(ctx, seq, &camp, func(res *core.CompileResult) (core.Alternative, string, error) {
		alts := res.CompliantAlternatives()
		if len(alts) == 0 {
			return core.Alternative{}, "", fmt.Errorf("%s: no compliant alternative", ch.ID)
		}
		i := k % len(alts)
		return alts[i], fmt.Sprintf("%s#%d", ch.ID, i), nil
	})
	if err != nil {
		return opResult{kind: kind, err: err}
	}
	got := labsOutcome{rows: rep.RowsProcessed, accuracy: rep.Measured[model.IndicatorAccuracy]}
	l.mu.Lock()
	want, ok := l.seen[kind]
	if !ok {
		l.seen[kind] = got
		want = got
	}
	l.mu.Unlock()
	if l.corrupt {
		got.rows++
	}
	if got.rows != want.rows || math.Float64bits(got.accuracy) != math.Float64bits(want.accuracy) {
		return opResult{kind: kind, err: fmt.Errorf("output check: rows %d accuracy %v, first run gave rows %d accuracy %v",
			got.rows, got.accuracy, want.rows, want.accuracy)}
	}
	return opResult{kind: kind}
}

func (l *labsExplore) finish(context.Context) (int, error) { return 0, nil }

func (l *labsExplore) layers(_ context.Context, m metrics) error {
	setLayers(l.tr, m)
	return nil
}

func (l *labsExplore) close() error { return l.stack.close() }
