package runner_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenRunsPath = "testdata/golden_runs.txt"

// goldenConsumers are the two campaigns that read a producer challenge's
// stored result instead of a generated table: a grouped report over the telco
// churn result and a forecast over the energy result.
func goldenConsumers() []*model.Campaign {
	telco := runner.ResultTableName("telco-churn")
	energy := runner.ResultTableName("energy-forecast")
	return []*model.Campaign{
		{
			Name:     "telco-report",
			Vertical: string(workload.VerticalTelco),
			Goal: model.Goal{Task: model.TaskReporting, TargetTable: telco,
				GroupColumns: []string{"region", "plan"}, ValueColumn: "monthly_charge"},
			Sources: []model.DataSource{{Table: telco, ContainsPersonalData: true, Region: "eu"}},
			Objectives: []model.Objective{
				{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5, Hard: true},
			},
			Regime: model.RegimePseudonymize,
		},
		{
			Name:     "energy-trend",
			Vertical: string(workload.VerticalEnergy),
			Goal: model.Goal{Task: model.TaskForecasting, TargetTable: energy,
				ValueColumn: "kwh", TimeColumn: "read_at"},
			Sources: []model.DataSource{{Table: energy, ContainsPersonalData: true, Region: "eu"}},
			Objectives: []model.Objective{
				{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5},
			},
			Regime: model.RegimeStrict,
		},
	}
}

// TestGoldenRunDigest runs every compliant alternative of every built-in Labs
// challenge, then the two stored-result consumers, on a store-backed runner
// and compares one digest line per run against testdata/golden_runs.txt. A
// line pins rows processed, the accuracy indicator's bits, the sorted
// details, the engine's row counters and a hash of the saved result table's
// rows, so any change to what a campaign computes or persists shows up as a
// line diff. Regenerate with -update only when a change is meant to alter
// results.
func TestGoldenRunDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every compliant Labs alternative")
	}
	data := storage.NewCatalog()
	gen := workload.NewGenerator(11)
	sz := workload.Sizing{Customers: 300, Meters: 3, Days: 4, Users: 50}
	for _, v := range workload.Verticals() {
		sc, err := gen.Generate(v, sz)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Register(data); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(t.TempDir(), store.WithSegmentRows(256), store.WithFrameRows(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	compiler, err := core.NewCompiler(data, core.WithDurableStore(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runner.New(data, runner.WithResultStore(st), runner.WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	var campaigns []*model.Campaign
	for _, ch := range labs.BuiltinChallenges() {
		campaigns = append(campaigns, ch.Campaign)
	}
	campaigns = append(campaigns, goldenConsumers()...)

	var lines []string
	for _, template := range campaigns {
		camp := *template
		res, err := compiler.Compile(&camp)
		if err != nil {
			t.Fatalf("%s: compile: %v", camp.Name, err)
		}
		alts := res.CompliantAlternatives()
		if len(alts) == 0 {
			t.Fatalf("%s: no compliant alternative", camp.Name)
		}
		for i, alt := range alts {
			rep, err := r.Run(context.Background(), &camp, alt)
			if err != nil {
				t.Fatalf("%s#%d: run: %v", camp.Name, i, err)
			}
			stored, err := st.Rows(runner.ResultTableName(camp.Name))
			if err != nil {
				t.Fatalf("%s#%d: read saved result: %v", camp.Name, i, err)
			}
			lines = append(lines, digestLine(camp.Name, i, alt, rep, stored))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenRunsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(goldenRunsPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with `go test ./internal/runner -run GoldenRunDigest -update`): %v", goldenRunsPath, err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d runs, golden file has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("run %d differs from golden:\n got: %s\nwant: %s", i, lines[i], want[i])
		}
	}
}

// digestLine renders one run as a single deterministic line.
func digestLine(campaign string, i int, alt core.Alternative, rep *runner.Report, stored []storage.Row) string {
	details := make([]string, 0, len(rep.Details))
	for k, v := range rep.Details {
		details = append(details, k+"="+v)
	}
	sort.Strings(details)
	s := rep.EngineStats
	return fmt.Sprintf("%s#%d alt=%s rows=%d acc=%016x read=%d out=%d shuffled=%d combined=%d groups=%d batchrows=%d stored=%d/%x details=[%s]",
		campaign, i, alt.Fingerprint(), rep.RowsProcessed, math.Float64bits(rep.Measured[model.IndicatorAccuracy]),
		s.RowsRead, s.RowsOutput, s.ShuffledRows, s.CombinedRows, s.AggGroups, s.BatchRows,
		len(stored), rowsHash(stored), strings.Join(details, ";"))
}

// rowsHash hashes rows cell by cell with a type tag, so a value that changes
// type (int 1 vs float 1) or bits (-0 vs +0) changes the hash.
func rowsHash(rows []storage.Row) []byte {
	h := sha256.New()
	for _, row := range rows {
		for _, v := range row {
			switch x := v.(type) {
			case nil:
				fmt.Fprint(h, "n|")
			case int64:
				fmt.Fprintf(h, "i%d|", x)
			case float64:
				fmt.Fprintf(h, "f%x|", math.Float64bits(x))
			case string:
				fmt.Fprintf(h, "s%q|", x)
			case bool:
				fmt.Fprintf(h, "b%t|", x)
			case time.Time:
				fmt.Fprintf(h, "t%d|", x.UnixNano())
			default:
				fmt.Fprintf(h, "?%T%v|", x, x)
			}
		}
		fmt.Fprint(h, "\n")
	}
	return h.Sum(nil)
}
