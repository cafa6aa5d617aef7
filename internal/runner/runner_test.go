package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/workload"
)

// environment bundles the data catalog and compiler shared by runner tests.
type environment struct {
	data     *storage.Catalog
	compiler *core.Compiler
	runner   *Runner
}

func newEnvironment(t *testing.T, verticals ...workload.Vertical) *environment {
	t.Helper()
	data := storage.NewCatalog()
	gen := workload.NewGenerator(17)
	sz := workload.Sizing{Customers: 400, Meters: 3, Days: 3, Users: 60}
	for _, v := range verticals {
		sc, err := gen.Generate(v, sz)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Register(data); err != nil {
			t.Fatal(err)
		}
	}
	compiler, err := core.NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	return &environment{data: data, compiler: compiler, runner: r}
}

func (e *environment) compileAndRun(t *testing.T, campaign *model.Campaign) *Report {
	t.Helper()
	result, err := e.compiler.Compile(campaign)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	report, err := e.runner.Run(context.Background(), campaign, result.Chosen)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return report
}

func churnCampaign() *model.Campaign {
	return &model.Campaign{
		Name:     "churn",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClassification,
			TargetTable:    "telco_customers",
			LabelColumn:    "churned",
			FeatureColumns: []string{"tenure_months", "support_calls", "dropped_calls", "monthly_charge"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Objectives: []model.Objective{
			{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.6, Hard: true},
		},
		Regime: model.RegimePseudonymize,
	}
}

func TestNewRequiresCatalog(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrBadRun) {
		t.Errorf("err = %v, want ErrBadRun", err)
	}
}

func TestRunValidation(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	if _, err := env.runner.Run(context.Background(), nil, core.Alternative{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("err = %v, want ErrBadRun", err)
	}
}

func TestRunClassificationCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	report := env.compileAndRun(t, churnCampaign())

	acc, ok := report.Measured.Get(model.IndicatorAccuracy)
	if !ok || acc < 0.6 {
		t.Errorf("measured accuracy = %v, want a trained classifier beating 0.6", acc)
	}
	if cost, ok := report.Measured.Get(model.IndicatorCost); !ok || cost <= 0 {
		t.Errorf("measured cost = %v, want > 0", cost)
	}
	if lat, ok := report.Measured.Get(model.IndicatorLatency); !ok || lat < 0 {
		t.Errorf("measured latency = %v", lat)
	}
	if thr, ok := report.Measured.Get(model.IndicatorThroughput); !ok || thr <= 0 {
		t.Errorf("measured throughput = %v, want > 0", thr)
	}
	if !report.Evaluation.Feasible {
		t.Errorf("hard accuracy objective not met:\n%s", report.Evaluation.Summary())
	}
	if !report.Compliant {
		t.Error("chosen alternative must be compliant")
	}
	if report.RowsProcessed == 0 || report.EngineStats.RowsRead == 0 {
		t.Error("engine stats must reflect processed rows")
	}
	if report.Details["classification.model"] == "" || report.Details["preparation.privacy"] == "" {
		t.Errorf("details missing: %v", report.Details)
	}
	if report.ClusterUsage.TasksRun == 0 {
		t.Error("cluster usage must record executed tasks")
	}
}

func TestRunAnomalyCampaignOnPayments(t *testing.T) {
	env := newEnvironment(t, workload.VerticalFinance)
	campaign := &model.Campaign{
		Name:     "fraud",
		Vertical: "finance",
		Goal: model.Goal{
			Task:        model.TaskAnomaly,
			TargetTable: "payments",
			ValueColumn: "amount",
			LabelColumn: "fraud",
		},
		Sources: []model.DataSource{{Table: "payments", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	f1, _ := report.Measured.Get(model.IndicatorAccuracy)
	if f1 <= 0.1 {
		t.Errorf("fraud detection F1 = %v, expected meaningful signal on skewed amounts", f1)
	}
	if report.Details["anomaly.detector"] == "" {
		t.Errorf("details = %v", report.Details)
	}
}

func TestRunReportingCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalRetail)
	campaign := &model.Campaign{
		Name:     "revenue-report",
		Vertical: "retail",
		Goal: model.Goal{
			Task:         model.TaskReporting,
			TargetTable:  "retail_baskets",
			ValueColumn:  "unit_price",
			GroupColumns: []string{"category"},
		},
		Sources: []model.DataSource{{Table: "retail_baskets"}},
		Regime:  model.RegimeNone,
	}
	report := env.compileAndRun(t, campaign)
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc != 1.0 {
		t.Errorf("reporting quality = %v, want 1.0 (exact aggregation)", acc)
	}
	if report.Details["reporting.groups"] == "0" || report.Details["reporting.groups"] == "" {
		t.Errorf("reporting groups = %q", report.Details["reporting.groups"])
	}
}

func TestRunAssociationCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalRetail)
	campaign := &model.Campaign{
		Name:     "basket-analysis",
		Vertical: "retail",
		Goal: model.Goal{
			Task:              model.TaskAssociation,
			TargetTable:       "retail_baskets",
			ItemColumn:        "product",
			TransactionColumn: "basket_id",
		},
		Sources: []model.DataSource{{Table: "retail_baskets"}},
		Regime:  model.RegimeNone,
	}
	report := env.compileAndRun(t, campaign)
	if conf, _ := report.Measured.Get(model.IndicatorAccuracy); conf <= 0.3 {
		t.Errorf("rule confidence = %v, expected the affinity structure to surface", conf)
	}
	if report.Details["association.rules"] == "" || report.Details["association.rules"] == "0" {
		t.Errorf("association details = %v", report.Details)
	}
}

func TestRunForecastingCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalEnergy)
	campaign := &model.Campaign{
		Name:     "load-forecast",
		Vertical: "energy",
		Goal: model.Goal{
			Task:        model.TaskForecasting,
			TargetTable: "meter_readings",
			ValueColumn: "kwh",
			TimeColumn:  "read_at",
		},
		Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc <= 0 || acc > 1 {
		t.Errorf("forecast accuracy indicator = %v, want (0,1]", acc)
	}
	if report.Details["forecast.model"] == "" || report.Details["forecast.rmse"] == "" {
		t.Errorf("forecast details = %v", report.Details)
	}
}

func TestRunSessionizationCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalWeb)
	campaign := &model.Campaign{
		Name:     "funnel",
		Vertical: "web",
		Goal: model.Goal{
			Task:        model.TaskSessionization,
			TargetTable: "clickstream",
			TimeColumn:  "occurred_at",
			LabelColumn: "converted",
		},
		Sources: []model.DataSource{{Table: "clickstream", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	if report.Details["sessionization.sessions"] == "" || report.Details["sessionization.sessions"] == "0" {
		t.Errorf("sessionization details = %v", report.Details)
	}
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc <= 0 {
		t.Errorf("sessionization quality = %v, want > 0", acc)
	}
}

func TestRunClusteringCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	campaign := &model.Campaign{
		Name:     "segments",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClustering,
			TargetTable:    "telco_customers",
			FeatureColumns: []string{"monthly_charge", "data_usage_gb", "tenure_months"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	if q, _ := report.Measured.Get(model.IndicatorAccuracy); q <= 0 || q > 1 {
		t.Errorf("clustering quality = %v, want (0,1]", q)
	}
	if report.Details["clustering.k"] != "3" {
		t.Errorf("clustering k = %q, want default 3", report.Details["clustering.k"])
	}
}

func TestBetterClassifierBeatsBaselineWhenRun(t *testing.T) {
	// The Labs' core comparison (Table 2): among enumerated alternatives, the
	// measured accuracy of the logistic-regression pipeline must beat the
	// majority baseline on the same data.
	env := newEnvironment(t, workload.VerticalTelco)
	campaign := churnCampaign()
	alternatives, _, err := env.compiler.EnumerateAlternatives(campaign)
	if err != nil {
		t.Fatal(err)
	}
	measuredByService := map[string]float64{}
	for _, alt := range alternatives {
		if !alt.Compliant() {
			continue
		}
		step, _ := alt.Composition.AnalyticsStep()
		if _, done := measuredByService[step.Service.ID]; done {
			continue
		}
		rep, err := env.runner.Run(context.Background(), campaign, alt)
		if err != nil {
			t.Fatalf("run %s: %v", alt.Fingerprint(), err)
		}
		acc, _ := rep.Measured.Get(model.IndicatorAccuracy)
		measuredByService[step.Service.ID] = acc
	}
	logreg, okL := measuredByService["classify-logreg"]
	baseline, okB := measuredByService["classify-majority"]
	if !okL || !okB {
		t.Fatalf("measured services = %v, want both logreg and majority", measuredByService)
	}
	if logreg <= baseline {
		t.Errorf("logistic regression accuracy %.3f must beat the majority baseline %.3f", logreg, baseline)
	}
}

func TestRunWithFailureInjectionStillSucceeds(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	r, err := New(env.data, WithSeed(3), WithFailureInjection(0.15))
	if err != nil {
		t.Fatal(err)
	}
	campaign := churnCampaign()
	result, err := env.compiler.Compile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	report, err := r.Run(context.Background(), campaign, result.Chosen)
	if err != nil {
		t.Fatalf("run with failure injection: %v", err)
	}
	if report.ClusterUsage.Retries == 0 {
		t.Log("no retries happened despite injection; acceptable but unusual")
	}
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc < 0.6 {
		t.Errorf("accuracy with retries = %v, results must not degrade", acc)
	}
}

func TestEvaluationUsesMeasuredValues(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	campaign := churnCampaign()
	campaign.Objectives = append(campaign.Objectives, model.Objective{
		Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 60_000,
	})
	report := env.compileAndRun(t, campaign)
	var latencyResult *sla.ObjectiveResult
	for i := range report.Evaluation.Results {
		if report.Evaluation.Results[i].Objective.Indicator == model.IndicatorLatency {
			latencyResult = &report.Evaluation.Results[i]
		}
	}
	if latencyResult == nil || latencyResult.Missing {
		t.Fatal("latency objective must be evaluated from the measured run")
	}
}

// TestPseudonymizeMatchesFNVFormula pins the inlined hash loop against the
// formula it replaced — fmt.Sprintf("pseu-%016x") over hash/fnv's 64-bit
// FNV-1a — so stored pseudonyms stay byte-identical across versions.
func TestPseudonymizeMatchesFNVFormula(t *testing.T) {
	formula := func(v string) string {
		h := fnv.New64a()
		_, _ = h.Write([]byte(v))
		return fmt.Sprintf("pseu-%016x", h.Sum64())
	}
	corpus := []string{"", "a", "Alice Example", "***", "pseu-0000000000000000",
		"Zoë Ångström", "日本語の名前", "emoji 🙂 name", "\x00\xff\xfe", strings.Repeat("long-name ", 500)}
	for i := 0; i < 200; i++ {
		corpus = append(corpus, fmt.Sprintf("customer-%d", i*7919))
	}
	for _, v := range corpus {
		if got, want := pseudonymize(v), formula(v); got != want {
			t.Errorf("pseudonymize(%q) = %q, want %q", v, got, want)
		}
	}
}

// TestTransactionsOfGroupsLikeAsString checks the typed one-pass basket
// grouping against grouping by storage.AsString of the boxed cells, in
// first-seen order, for every transaction column type: -0.0 and 0.0 are
// different transactions although they share a key encoding, NaNs with
// different payloads are one, a null string joins "", and other nulls are a
// transaction of their own.
func TestTransactionsOfGroupsLikeAsString(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1<<63 ^ 1<<40)
	columns := map[storage.FieldType][]storage.Value{
		storage.TypeFloat:  {0.0, negZero, math.NaN(), nil, otherNaN, 1.5, 0.0, nil, math.Inf(1), negZero},
		storage.TypeInt:    {int64(3), nil, int64(-3), int64(3), int64(0), nil, int64(0), int64(7), int64(-3), int64(7)},
		storage.TypeTime:   {int64(5), int64(5), nil, int64(-1), int64(5), nil, int64(2), int64(2), int64(-1), int64(9)},
		storage.TypeString: {"a", "", nil, "b", "a", nil, "", "0", "b", "c"},
		storage.TypeBool:   {true, false, nil, true, nil, false, true, false, true, nil},
	}
	items := []storage.Value{"milk", "bread", nil, "", "milk", "tea", "wine", "milk", "tea", "eggs"}
	for typ, keys := range columns {
		schema := storage.MustSchema(
			storage.Field{Name: "tx", Type: typ, Nullable: true},
			storage.Field{Name: "item", Type: storage.TypeString, Nullable: true},
		)
		var rows []storage.Row
		for i, k := range keys {
			rows = append(rows, storage.Row{k, items[i]})
		}
		// Two batches, so first-seen order spans batch boundaries.
		var batches []*storage.ColumnBatch
		for _, part := range [][]storage.Row{rows[:4], rows[4:]} {
			b, err := storage.BatchFromRows(schema, part)
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, b)
		}
		index := map[string]int{}
		var want [][]string
		for _, row := range rows {
			k := storage.AsString(row[0])
			i, ok := index[k]
			if !ok {
				i = len(want)
				index[k] = i
				want = append(want, nil)
			}
			want[i] = append(want[i], storage.AsString(row[1]))
		}
		got := transactionsOf(batches, 0, 1)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s transactions = %q, want %q", typ, got, want)
		}
	}
}
