package analytics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Itemset is a set of items with its support (fraction of transactions that
// contain every item of the set).
type Itemset struct {
	Items   []string
	Support float64
}

// Key returns a canonical representation of the itemset (sorted, joined).
func (s Itemset) Key() string {
	items := append([]string(nil), s.Items...)
	sort.Strings(items)
	return strings.Join(items, ",")
}

// Rule is an association rule antecedent → consequent.
type Rule struct {
	Antecedent []string
	Consequent []string
	Support    float64
	Confidence float64
	Lift       float64
}

// String renders the rule compactly.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%.3f conf=%.3f lift=%.2f)",
		strings.Join(r.Antecedent, ","), strings.Join(r.Consequent, ","), r.Support, r.Confidence, r.Lift)
}

// Apriori mines frequent itemsets and association rules from transactions
// (each transaction is the list of items it contains).
type Apriori struct {
	// MinSupport is the minimum fraction of transactions an itemset must
	// appear in (default 0.05).
	MinSupport float64
	// MinConfidence is the minimum confidence for generated rules (default 0.5).
	MinConfidence float64
	// MaxItemsetSize bounds the size of mined itemsets (default 3).
	MaxItemsetSize int
}

func (a *Apriori) defaults() {
	if a.MinSupport <= 0 {
		a.MinSupport = 0.05
	}
	if a.MinConfidence <= 0 {
		a.MinConfidence = 0.5
	}
	if a.MaxItemsetSize <= 0 {
		a.MaxItemsetSize = 3
	}
}

// Mine returns frequent itemsets (sorted by descending support) and rules
// (sorted by descending confidence, then lift).
//
// Support is counted over one transaction bitset per distinct item: the
// support count of an itemset is the popcount of the AND of its items'
// bitsets, divided by the number of transactions.
func (a *Apriori) Mine(transactions [][]string) ([]Itemset, []Rule, error) {
	if len(transactions) == 0 {
		return nil, nil, ErrNoData
	}
	a.defaults()
	n := float64(len(transactions))
	ix := newItemBitsets(transactions)
	supportOf := func(items []string) float64 { return float64(ix.countItems(items)) / n }

	// Level 1: frequent single items, in first-seen order.
	var frequent []Itemset
	current := make([][]string, 0)
	supportIndex := map[string]float64{}
	for id, item := range ix.items {
		sup := float64(ix.count([]int32{int32(id)})) / n
		if sup >= a.MinSupport {
			frequent = append(frequent, Itemset{Items: []string{item}, Support: sup})
			current = append(current, []string{item})
			supportIndex[item] = sup
		}
	}

	// Levels 2..MaxItemsetSize: candidate generation by joining sets that
	// share a prefix, then support counting.
	for size := 2; size <= a.MaxItemsetSize && len(current) > 1; size++ {
		keys, candidates := generateCandidates(current, size)
		var next [][]string
		for i, cand := range candidates {
			sup := supportOf(cand)
			if sup >= a.MinSupport {
				frequent = append(frequent, Itemset{Items: cand, Support: sup})
				supportIndex[keys[i]] = sup
				next = append(next, cand)
			}
		}
		current = next
	}

	// Rule generation from itemsets of size >= 2. Their items are sorted, so
	// every split side is too and joining it gives its canonical key.
	var rules []Rule
	for _, is := range frequent {
		if len(is.Items) < 2 {
			continue
		}
		for _, split := range nonEmptySplits(is.Items) {
			antecedentSupport := supportIndex[strings.Join(split.antecedent, ",")]
			consequentSupport := supportIndex[strings.Join(split.consequent, ",")]
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

	// Sort keys are computed once per element, not once per comparison.
	itemsetKeys := make([]string, len(frequent))
	for i, is := range frequent {
		itemsetKeys[i] = is.Key()
	}
	sort.Sort(itemsetOrder{frequent, itemsetKeys})
	ruleKeys := make([]string, len(rules))
	for i, r := range rules {
		ruleKeys[i] = r.String()
	}
	sort.Sort(ruleOrder{rules, ruleKeys})
	return frequent, rules, nil
}

// itemsetOrder sorts itemsets by descending support, then by canonical key.
type itemsetOrder struct {
	sets []Itemset
	keys []string
}

func (o itemsetOrder) Len() int { return len(o.sets) }
func (o itemsetOrder) Less(i, j int) bool {
	if o.sets[i].Support != o.sets[j].Support {
		return o.sets[i].Support > o.sets[j].Support
	}
	return o.keys[i] < o.keys[j]
}
func (o itemsetOrder) Swap(i, j int) {
	o.sets[i], o.sets[j] = o.sets[j], o.sets[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

// ruleOrder sorts rules by descending confidence, then descending lift, then
// by their rendering.
type ruleOrder struct {
	rules []Rule
	strs  []string
}

func (o ruleOrder) Len() int { return len(o.rules) }
func (o ruleOrder) Less(i, j int) bool {
	if o.rules[i].Confidence != o.rules[j].Confidence {
		return o.rules[i].Confidence > o.rules[j].Confidence
	}
	if o.rules[i].Lift != o.rules[j].Lift {
		return o.rules[i].Lift > o.rules[j].Lift
	}
	return o.strs[i] < o.strs[j]
}
func (o ruleOrder) Swap(i, j int) {
	o.rules[i], o.rules[j] = o.rules[j], o.rules[i]
	o.strs[i], o.strs[j] = o.strs[j], o.strs[i]
}

// itemBitsets indexes transactions by item: every distinct non-empty item
// gets a dense id in first-seen order and a bitset with bit t set when
// transaction t contains it. The bitsets are rows of one flat slab.
type itemBitsets struct {
	ids   map[string]int32
	items []string // id -> item
	words int      // uint64 words per bitset
	bits  []uint64 // bitset of id at bits[id*words : (id+1)*words]
	acc   []uint64 // scratch for count
	n     int      // transactions
}

func newItemBitsets(transactions [][]string) *itemBitsets {
	ix := &itemBitsets{ids: map[string]int32{}, words: (len(transactions) + 63) / 64, n: len(transactions)}
	ix.acc = make([]uint64, ix.words)
	for t, tx := range transactions {
		for _, item := range tx {
			if item == "" {
				continue
			}
			id, ok := ix.ids[item]
			if !ok {
				id = int32(len(ix.items))
				ix.ids[item] = id
				ix.items = append(ix.items, item)
				ix.bits = append(ix.bits, make([]uint64, ix.words)...)
			}
			ix.bits[int(id)*ix.words+(t>>6)] |= 1 << (uint(t) & 63)
		}
	}
	return ix
}

// row returns the bitset of item id.
func (ix *itemBitsets) row(id int32) []uint64 {
	return ix.bits[int(id)*ix.words : (int(id)+1)*ix.words]
}

// count returns the number of transactions containing every item of ids;
// every transaction contains the empty itemset.
func (ix *itemBitsets) count(ids []int32) int {
	if len(ids) == 0 {
		return ix.n
	}
	acc := ix.acc
	copy(acc, ix.row(ids[0]))
	for _, id := range ids[1:] {
		r := ix.row(id)
		for w := range acc {
			acc[w] &= r[w]
		}
	}
	c := 0
	for _, w := range acc {
		c += bits.OnesCount64(w)
	}
	return c
}

// countItems is count for an itemset given by item names; an item no
// transaction holds makes the count 0.
func (ix *itemBitsets) countItems(items []string) int {
	var buf [8]int32
	ids := buf[:0]
	for _, it := range items {
		id, ok := ix.ids[it]
		if !ok {
			return 0
		}
		ids = append(ids, id)
	}
	return ix.count(ids)
}

// generateCandidates joins frequent (size-1)-itemsets, each sorted, into
// size-itemsets, deduplicated by canonical key. It returns the candidates
// and their keys in ascending key order.
func generateCandidates(current [][]string, size int) ([]string, [][]string) {
	seen := map[string][]string{}
	union := make([]string, 0, size)
	for i := 0; i < len(current); i++ {
		for j := i + 1; j < len(current); j++ {
			var ok bool
			if union, ok = sortedUnion(union[:0], current[i], current[j], size); !ok {
				continue
			}
			items := append([]string(nil), union...)
			seen[strings.Join(items, ",")] = items
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return keys, out
}

// sortedUnion merges the sorted sets a and b into dst; ok is false unless
// the union holds exactly size items.
func sortedUnion(dst, a, b []string, size int) ([]string, bool) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if len(dst) == size {
			return dst, false
		}
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst, len(dst) == size
}

type split struct {
	antecedent []string
	consequent []string
}

// nonEmptySplits enumerates all ways to split items into a non-empty
// antecedent and non-empty consequent.
func nonEmptySplits(items []string) []split {
	n := len(items)
	var out []split
	for mask := 1; mask < (1<<n)-1; mask++ {
		var a, c []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				a = append(a, items[i])
			} else {
				c = append(c, items[i])
			}
		}
		out = append(out, split{antecedent: a, consequent: c})
	}
	return out
}
