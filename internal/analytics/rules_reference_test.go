package analytics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceMine is the specification of Apriori.Mine: the map-based miner
// that probes one item set per transaction for every candidate. Mine counts
// support over item bitsets instead and must agree with it exactly.
func referenceMine(a Apriori, transactions [][]string) ([]Itemset, []Rule, error) {
	if len(transactions) == 0 {
		return nil, nil, ErrNoData
	}
	a.defaults()
	n := float64(len(transactions))
	txSets := referenceTxSets(transactions)
	supportOf := func(items []string) float64 { return referenceSupport(txSets, items) }

	itemCounts := map[string]int{}
	for _, set := range txSets {
		for item := range set {
			itemCounts[item]++
		}
	}
	var frequent []Itemset
	current := make([][]string, 0)
	for item, count := range itemCounts {
		sup := float64(count) / n
		if sup >= a.MinSupport {
			frequent = append(frequent, Itemset{Items: []string{item}, Support: sup})
			current = append(current, []string{item})
		}
	}
	supportIndex := map[string]float64{}
	for _, f := range frequent {
		supportIndex[f.Key()] = f.Support
	}
	for size := 2; size <= a.MaxItemsetSize && len(current) > 1; size++ {
		var next [][]string
		for _, cand := range referenceCandidates(current, size) {
			sup := supportOf(cand)
			if sup >= a.MinSupport {
				is := Itemset{Items: cand, Support: sup}
				frequent = append(frequent, is)
				supportIndex[is.Key()] = sup
				next = append(next, cand)
			}
		}
		current = next
	}

	var rules []Rule
	for _, is := range frequent {
		if len(is.Items) < 2 {
			continue
		}
		for _, split := range nonEmptySplits(is.Items) {
			antecedentSupport := supportIndex[Itemset{Items: split.antecedent}.Key()]
			consequentSupport := supportIndex[Itemset{Items: split.consequent}.Key()]
			if antecedentSupport == 0 {
				antecedentSupport = supportOf(split.antecedent)
			}
			if consequentSupport == 0 {
				consequentSupport = supportOf(split.consequent)
			}
			if antecedentSupport == 0 || consequentSupport == 0 {
				continue
			}
			conf := is.Support / antecedentSupport
			if conf < a.MinConfidence {
				continue
			}
			rules = append(rules, Rule{
				Antecedent: split.antecedent,
				Consequent: split.consequent,
				Support:    is.Support,
				Confidence: conf,
				Lift:       conf / consequentSupport,
			})
		}
	}

	sort.Slice(frequent, func(i, j int) bool {
		if frequent[i].Support != frequent[j].Support {
			return frequent[i].Support > frequent[j].Support
		}
		return frequent[i].Key() < frequent[j].Key()
	})
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		if rules[i].Lift != rules[j].Lift {
			return rules[i].Lift > rules[j].Lift
		}
		return rules[i].String() < rules[j].String()
	})
	return frequent, rules, nil
}

// referenceTxSets canonicalises transactions to item sets, dropping empty
// items.
func referenceTxSets(transactions [][]string) []map[string]bool {
	txSets := make([]map[string]bool, len(transactions))
	for i, tx := range transactions {
		set := make(map[string]bool, len(tx))
		for _, item := range tx {
			if item != "" {
				set[item] = true
			}
		}
		txSets[i] = set
	}
	return txSets
}

// referenceSupport is the fraction of transactions containing every item.
func referenceSupport(txSets []map[string]bool, items []string) float64 {
	count := 0
	for _, set := range txSets {
		all := true
		for _, it := range items {
			if !set[it] {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return float64(count) / float64(len(txSets))
}

// referenceCandidates joins frequent (size-1)-itemsets into size-itemsets
// through a union set per pair, deduplicated by canonical key and returned
// in key order.
func referenceCandidates(current [][]string, size int) [][]string {
	seen := map[string][]string{}
	for i := 0; i < len(current); i++ {
		for j := i + 1; j < len(current); j++ {
			union := map[string]bool{}
			for _, it := range current[i] {
				union[it] = true
			}
			for _, it := range current[j] {
				union[it] = true
			}
			if len(union) != size {
				continue
			}
			items := make([]string, 0, size)
			for it := range union {
				items = append(items, it)
			}
			sort.Strings(items)
			seen[strings.Join(items, ",")] = items
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// requireMineMatchesReference mines transactions with Mine and with the
// reference and fails unless itemsets and rules agree exactly, with every
// float equal bit for bit. It returns the mined itemsets and rules.
func requireMineMatchesReference(t *testing.T, a Apriori, transactions [][]string) ([]Itemset, []Rule) {
	t.Helper()
	wantSets, wantRules, wantErr := referenceMine(a, transactions)
	got := a
	gotSets, gotRules, gotErr := got.Mine(transactions)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error = %v, reference error = %v", gotErr, wantErr)
	}
	if len(gotSets) != len(wantSets) {
		t.Fatalf("%d itemsets, reference has %d", len(gotSets), len(wantSets))
	}
	for i := range wantSets {
		g, w := gotSets[i], wantSets[i]
		if strings.Join(g.Items, "\x00") != strings.Join(w.Items, "\x00") ||
			math.Float64bits(g.Support) != math.Float64bits(w.Support) {
			t.Fatalf("itemset %d = %v (%v), reference %v (%v)", i, g.Items, g.Support, w.Items, w.Support)
		}
	}
	if len(gotRules) != len(wantRules) {
		t.Fatalf("%d rules, reference has %d", len(gotRules), len(wantRules))
	}
	for i := range wantRules {
		g, w := gotRules[i], wantRules[i]
		if strings.Join(g.Antecedent, "\x00") != strings.Join(w.Antecedent, "\x00") ||
			strings.Join(g.Consequent, "\x00") != strings.Join(w.Consequent, "\x00") ||
			math.Float64bits(g.Support) != math.Float64bits(w.Support) ||
			math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) ||
			math.Float64bits(g.Lift) != math.Float64bits(w.Lift) {
			t.Fatalf("rule %d = %v, reference %v", i, g, w)
		}
	}
	return gotSets, gotRules
}

// randomBaskets draws n transactions over items, each with 0..maxLen draws
// (repeats allowed) skewed towards the first items, plus a few empty items.
func randomBaskets(rng *rand.Rand, n int, items []string, maxLen int) [][]string {
	out := make([][]string, n)
	for t := range out {
		k := rng.Intn(maxLen + 1)
		tx := make([]string, 0, k)
		for i := 0; i < k; i++ {
			if rng.Intn(20) == 0 {
				tx = append(tx, "")
				continue
			}
			j := int(float64(len(items)) * rng.Float64() * rng.Float64())
			tx = append(tx, items[j])
		}
		out[t] = tx
	}
	return out
}

func TestAprioriMatchesReferenceOnRandomBaskets(t *testing.T) {
	items := make([]string, 18)
	for i := range items {
		items[i] = fmt.Sprintf("item%02d", i)
	}
	largest, rules := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		tx := randomBaskets(rng, n, items, 2+rng.Intn(7))
		for size := 1; size <= 4; size++ {
			a := Apriori{MinSupport: 0.02 + 0.1*rng.Float64(), MinConfidence: 0.1 + 0.5*rng.Float64(), MaxItemsetSize: size}
			t.Run(fmt.Sprintf("seed%d/n%d/size%d", seed, n, size), func(t *testing.T) {
				sets, rs := requireMineMatchesReference(t, a, tx)
				for _, is := range sets {
					largest = max(largest, len(is.Items))
				}
				rules += len(rs)
			})
		}
	}
	// The draws must exercise deep levels and rule generation.
	if largest < 4 || rules == 0 {
		t.Errorf("largest itemset %d, %d rules: the random baskets exercise too little", largest, rules)
	}
}

func TestAprioriMatchesReferenceOnEdgeCases(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	// Transaction counts around the 64-bit word boundaries of the bitsets.
	for _, n := range []int{1, 63, 64, 65, 129} {
		rng := rand.New(rand.NewSource(int64(n)))
		tx := randomBaskets(rng, n, items, 5)
		for size := 1; size <= 4; size++ {
			a := Apriori{MinSupport: 0.05, MinConfidence: 0.2, MaxItemsetSize: size}
			t.Run(fmt.Sprintf("n%d/size%d", n, size), func(t *testing.T) {
				requireMineMatchesReference(t, a, tx)
			})
		}
	}
	cases := map[string][][]string{
		// Empty items are dropped; a transaction of only empty items is
		// still counted in n.
		"empty-items": {{"", "a"}, {""}, {"a", "b", ""}, {"b"}, {}},
		// Repeats inside one transaction count once.
		"repeated-items": {{"a", "a", "b"}, {"b", "b", "b"}, {"a", "b", "a", "c"}, {"c", "c"}},
		// "rare" and "once" never reach the support threshold.
		"infrequent-items": {{"a", "b"}, {"a", "b"}, {"a", "b", "rare"}, {"a"}, {"b", "once"},
			{"a", "b"}, {"a"}, {"b"}, {"a", "b"}, {"a", "b"}},
		"single-transaction": {{"x", "y", "z"}},
	}
	for name, tx := range cases {
		for size := 1; size <= 4; size++ {
			a := Apriori{MinSupport: 0.15, MinConfidence: 0.3, MaxItemsetSize: size}
			t.Run(fmt.Sprintf("%s/size%d", name, size), func(t *testing.T) {
				requireMineMatchesReference(t, a, tx)
			})
		}
	}
}

func TestItemBitsetsCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tx := randomBaskets(rng, 129, []string{"a", "b", "c", "d"}, 6)
	ix := newItemBitsets(tx)
	sets := referenceTxSets(tx)
	n := float64(len(tx))
	// The empty itemset is in every transaction.
	if got, want := float64(ix.countItems(nil))/n, referenceSupport(sets, nil); got != 1 || want != 1 {
		t.Fatalf("support of the empty itemset = %v, reference %v, want 1", got, want)
	}
	for _, items := range [][]string{{"a"}, {"d", "a"}, {"a", "b", "c"}, {"a", "b", "c", "d"}, {"missing"}, {"a", ""}} {
		got := float64(ix.countItems(items)) / n
		if want := referenceSupport(sets, items); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("support of %v = %v, reference %v", items, got, want)
		}
	}
	// Items take dense ids in first-seen order.
	var firstSeen []string
	for _, items := range tx {
		for _, it := range items {
			if _, ok := ix.ids[it]; ok && !slices.Contains(firstSeen, it) {
				firstSeen = append(firstSeen, it)
			}
		}
	}
	if !slices.Equal(ix.items, firstSeen) {
		t.Errorf("item ids = %v, want first-seen order %v", ix.items, firstSeen)
	}
	for id, item := range ix.items {
		if ix.ids[item] != int32(id) {
			t.Errorf("item %q has id %d, want %d", item, ix.ids[item], id)
		}
	}
}
