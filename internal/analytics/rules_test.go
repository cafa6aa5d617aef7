package analytics

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func basketTransactions() [][]string {
	// pasta appears with tomatoes in 4 of 5 pasta baskets.
	return [][]string{
		{"pasta", "tomatoes", "olive_oil"},
		{"pasta", "tomatoes"},
		{"pasta", "tomatoes", "wine"},
		{"pasta", "tomatoes", "bread"},
		{"pasta", "milk"},
		{"milk", "bread"},
		{"milk", "bread", "coffee"},
		{"coffee", "croissant"},
		{"coffee", "croissant", "chocolate"},
		{"wine", "cheese"},
	}
}

func TestAprioriFindsFrequentItemsets(t *testing.T) {
	a := &Apriori{MinSupport: 0.3, MinConfidence: 0.6}
	itemsets, rules, err := a.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]float64{}
	for _, is := range itemsets {
		found[is.Key()] = is.Support
	}
	if found["pasta"] != 0.5 {
		t.Errorf("support(pasta) = %v, want 0.5", found["pasta"])
	}
	if found["pasta,tomatoes"] != 0.4 {
		t.Errorf("support(pasta,tomatoes) = %v, want 0.4", found["pasta,tomatoes"])
	}
	// The rule pasta => tomatoes must be produced with confidence 0.8.
	var pastaRule *Rule
	for i := range rules {
		r := rules[i]
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "pasta" &&
			len(r.Consequent) == 1 && r.Consequent[0] == "tomatoes" {
			pastaRule = &rules[i]
		}
	}
	if pastaRule == nil {
		t.Fatalf("rule pasta=>tomatoes not found in %v", rules)
	}
	if pastaRule.Confidence < 0.79 || pastaRule.Confidence > 0.81 {
		t.Errorf("confidence = %v, want 0.8", pastaRule.Confidence)
	}
	if pastaRule.Lift <= 1 {
		t.Errorf("lift = %v, want > 1 (tomatoes base support is 0.4)", pastaRule.Lift)
	}
	if !strings.Contains(pastaRule.String(), "pasta => tomatoes") {
		t.Errorf("rule string = %q", pastaRule.String())
	}
}

func TestAprioriSupportThresholdPrunes(t *testing.T) {
	strict := &Apriori{MinSupport: 0.45, MinConfidence: 0.5}
	itemsets, _, err := strict.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range itemsets {
		if is.Support < 0.45 {
			t.Errorf("itemset %v below the support threshold (%v)", is.Items, is.Support)
		}
		if len(is.Items) > 1 {
			t.Errorf("no 2-itemset reaches 0.45 support, got %v", is.Items)
		}
	}
}

func TestAprioriDefaultsAndErrors(t *testing.T) {
	if _, _, err := (&Apriori{}).Mine(nil); !errors.Is(err, ErrNoData) {
		t.Error("empty transactions must fail")
	}
	a := &Apriori{}
	if _, _, err := a.Mine([][]string{{"a", "b"}, {"a"}, {"", "b"}}); err != nil {
		t.Fatalf("defaults mining failed: %v", err)
	}
	if a.MinSupport <= 0 || a.MinConfidence <= 0 || a.MaxItemsetSize <= 0 {
		t.Error("defaults must be applied")
	}
}

func TestAprioriResultsAreSorted(t *testing.T) {
	a := &Apriori{MinSupport: 0.1, MinConfidence: 0.1}
	itemsets, rules, err := a.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(itemsets); i++ {
		if itemsets[i].Support > itemsets[i-1].Support {
			t.Error("itemsets must be sorted by descending support")
			break
		}
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Error("rules must be sorted by descending confidence")
			break
		}
	}
}

func TestItemsetKeyCanonical(t *testing.T) {
	a := Itemset{Items: []string{"b", "a"}}
	b := Itemset{Items: []string{"a", "b"}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestNonEmptySplits(t *testing.T) {
	splits := nonEmptySplits([]string{"a", "b", "c"})
	if len(splits) != 6 { // 2^3 - 2
		t.Errorf("splits = %d, want 6", len(splits))
	}
	for _, s := range splits {
		if len(s.antecedent) == 0 || len(s.consequent) == 0 {
			t.Error("splits must be non-empty on both sides")
		}
	}
}

// retailBaskets draws n baskets over 18 products the way the retail
// workload does: 2–6 picks per basket, and picking pasta, coffee or wine
// pulls in each of its two companion products with probability 0.7.
func retailBaskets(n int, seed int64) [][]string {
	products := []string{"milk", "cheese", "yogurt", "bread", "croissant", "apples", "bananas",
		"tomatoes", "pasta", "rice", "olive_oil", "coffee", "tea", "wine", "soap", "detergent",
		"chocolate", "chips"}
	affinities := map[string][]string{
		"pasta":  {"tomatoes", "olive_oil"},
		"coffee": {"croissant", "chocolate"},
		"wine":   {"cheese", "bread"},
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, n)
	for b := range out {
		want := rng.Intn(5) + 2
		var basket []string
		add := func(p string) {
			if !slices.Contains(basket, p) {
				basket = append(basket, p)
			}
		}
		for len(basket) < want {
			p := products[rng.Intn(len(products))]
			add(p)
			for _, f := range affinities[p] {
				if rng.Float64() < 0.7 {
					add(f)
				}
			}
		}
		out[b] = basket
	}
	return out
}

// BenchmarkAprioriMine mines 8,000 retail-like baskets with the settings the
// runner's association step uses.
func BenchmarkAprioriMine(b *testing.B) {
	tx := retailBaskets(8000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &Apriori{MinSupport: 0.05, MinConfidence: 0.4}
		if _, _, err := a.Mine(tx); err != nil {
			b.Fatal(err)
		}
	}
}
