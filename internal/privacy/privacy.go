// Package privacy implements the privacy models SECRETA's algorithms
// enforce and its evaluator verifies: k-anonymity over relational
// quasi-identifiers, k^m-anonymity over the transaction attribute
// (Terrovitis et al.), and their combination (k,k^m)-anonymity for
// RT-datasets (Poulis et al.).
//
// The hot paths run on the interned columnar core. One class counter
// numbers equivalence classes by mixed-radix packed ID tuples, through a
// reused dense slot table when the tuples' radix is at most a fixed
// multiple of the record count and through a hash map above it:
// Partition runs it over rank-interned columns, and the relational
// algorithms' k-checks run it, through ClassCounter, over order-preserving
// compact ranks of the hierarchy nodes they publish. The k^m
// support scan counts itemsets of dense item IDs — a counts array for
// single items, a uint64-keyed map for pairs, packed byte keys beyond —
// sharded across a bounded worker pool and merged additively, which keeps
// the output deterministic for any worker count.
package privacy

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
)

// Class is one equivalence class: the indices of records sharing a QI
// signature.
type Class struct {
	Signature []string
	Records   []int
}

// Partition groups records by their QI signature, skipping suppressed
// records, and returns classes sorted by signature for determinism.
func Partition(ds *dataset.Dataset, qis []int) []Class {
	var cols [][]uint32
	var dicts []*dataset.Interner
	if len(qis) > 0 {
		cols, dicts = dataset.InternColumns(ds, qis)
	}
	return PartitionColumns(len(ds.Records), cols, dicts)
}

// PartitionColumns is Partition over the interned QI columns of n
// records, record r holding dicts[i].Value(cols[i][r]) on QI i.
// numberClasses groups the records by their ID tuples, allocating per
// class, not per record; with rank-ordered dictionaries ID order is value
// order, so the counter's key order is signature order.
func PartitionColumns(n int, cols [][]uint32, dicts []*dataset.Interner) []Class {
	// Suppression becomes an ID comparison: a record is suppressed when
	// every QI cell carries the marker's rank. With no QIs, or when any
	// column never holds the marker, no record is suppressed.
	cards := make([]int, len(dicts))
	supIDs := make([]uint32, len(dicts))
	var skip func(r int) bool
	haveSup := len(dicts) > 0
	for i, d := range dicts {
		cards[i] = d.Len()
		id, ok := d.ID(generalize.Suppressed)
		supIDs[i], haveSup = id, haveSup && ok
	}
	if haveSup {
		skip = func(r int) bool {
			for i := range cols {
				if cols[i][r] != supIDs[i] {
					return false
				}
			}
			return true
		}
	}
	var recs [][]int
	var reps []int
	var index classIndex
	numberClasses(&index, n, cols, nil, cards, skip, func(r, c int) {
		if c == len(recs) {
			recs, reps = append(recs, nil), append(reps, r)
		}
		recs[c] = append(recs[c], r)
	})
	order := index.order()
	out := make([]Class, len(order))
	for oc, c := range order {
		sig := make([]string, len(cols))
		for i := range sig {
			sig[i] = dicts[i].Value(cols[i][reps[c]])
		}
		out[oc] = Class{Signature: sig, Records: recs[c]}
	}
	return out
}

// ClassCounter counts equivalence-class sizes, reusing its class table
// and size slice from one call to the next, so a loop of k-checks does
// not rebuild them per check. One counter serves one goroutine.
type ClassCounter struct {
	index classIndex
	sizes []int
}

// ClassSizes returns the sizes of the equivalence classes of n records in
// first-seen order, where record r's signature on column i is cols[i][r]
// read through the translation table trans[i] (trans nil: the column IDs
// themselves), an ID below cards[i]. The slice is valid until the
// counter's next call. Callers that pass compact IDs, cards[i] the number
// of distinct IDs, keep the tuples' radix small enough for the dense
// slot table.
func (cc *ClassCounter) ClassSizes(n int, cols, trans [][]uint32, cards []int) []int {
	return cc.Classes(n, cols, trans, cards, nil)
}

// Classes is ClassSizes that also stores, when of is non-nil, the number
// of record r's class — its index in the returned sizes — in of[r].
func (cc *ClassCounter) Classes(n int, cols, trans [][]uint32, cards []int, of []int32) []int {
	cc.sizes = cc.sizes[:0]
	numberClasses(&cc.index, n, cols, trans, cards, nil, func(r, c int) {
		if c == len(cc.sizes) {
			cc.sizes = append(cc.sizes, 0)
		}
		cc.sizes[c]++
		if of != nil {
			of[r] = int32(c)
		}
	})
	return cc.sizes
}

// denseSlotsPerRecord caps numberClasses' dense slot table at this many
// slots per record. Above the cap a check hashes its keys instead: the
// table would cost more to hold than the map it replaces.
const denseSlotsPerRecord = 16

// numberClasses is the one equivalence-class counter behind Partition,
// ClassCounter and every relational k-check. It refills x and reports
// each record r in 0..n-1 that skip (nil: none) does not exclude to
// class, with the number of r's class; classes are numbered 0, 1, ... in
// first-seen order. Record r's signature is the tuple over columns i of
// cols[i][r], read through trans[i] when trans is non-nil, each ID below
// cards[i]. The tuple packs mixed-radix into a uint64 key,
// ((id0*card1)+id1)*card2 + ..., when the cardinality product fits, and
// into a big-endian byte string otherwise; either way the per-record path
// allocates nothing, and key order is tuple order. A packed key below
// denseSlotsPerRecord*n indexes a slot table directly; larger keys go
// through a map.
func numberClasses(x *classIndex, n int, cols, trans [][]uint32, cards []int, skip func(r int) bool, class func(r, c int)) {
	radix, packable := uint64(1), true
	for _, card := range cards {
		c := uint64(max(card, 1))
		if radix > (1<<63)/c {
			packable = false
			break
		}
		radix *= c
	}
	x.keys, x.wide = x.keys[:0], nil
	if !packable {
		x.wide = make(map[string]int)
		buf := make([]byte, 4*len(cols))
		for r := 0; r < n; r++ {
			if skip != nil && skip(r) {
				continue
			}
			for i, col := range cols {
				putID(buf[4*i:], translate(col[r], trans, i))
			}
			c, ok := x.wide[string(buf)]
			if !ok {
				c = len(x.wide)
				x.wide[string(buf)] = c
			}
			class(r, c)
		}
		return
	}
	dense := radix <= uint64(denseSlotsPerRecord)*uint64(n)
	if dense && uint64(len(x.slots)) < radix {
		x.slots = make([]int32, min(max(radix, 2*uint64(len(x.slots))), uint64(denseSlotsPerRecord)*uint64(n)))
	} else if !dense {
		if x.packed == nil {
			x.packed = make(map[uint64]int)
		}
		clear(x.packed)
	}
	for r := 0; r < n; r++ {
		if skip != nil && skip(r) {
			continue
		}
		key := uint64(0)
		for i, col := range cols {
			key = key*uint64(cards[i]) + uint64(translate(col[r], trans, i))
		}
		var c int
		if dense {
			c = int(x.slots[key]) - 1
			if c < 0 {
				c = len(x.keys)
				x.slots[key] = int32(c + 1)
				x.keys = append(x.keys, key)
			}
		} else {
			var ok bool
			if c, ok = x.packed[key]; !ok {
				c = len(x.keys)
				x.packed[key] = c
				x.keys = append(x.keys, key)
			}
		}
		class(r, c)
	}
	if dense {
		// The touched list clears the table for the next count.
		for _, key := range x.keys {
			x.slots[key] = 0
		}
	}
}

// translate reads column i's ID through its translation table, if any.
func translate(id uint32, trans [][]uint32, i int) uint32 {
	if trans != nil {
		return trans[i][id]
	}
	return id
}

// classIndex holds numberClasses' signature keys: keys[c] is class c's
// packed key, numbered through the all-zero-between-counts slot table or
// the packed map; wide is the byte-string index used, instead, when the
// tuples do not pack.
type classIndex struct {
	keys   []uint64
	slots  []int32 // slots[key] = class+1, 0 for a key not seen
	packed map[uint64]int
	wide   map[string]int
}

// order returns the class numbers sorted by signature tuple.
func (x *classIndex) order() []int {
	if x.wide != nil {
		keys := make([]string, len(x.wide))
		for key, c := range x.wide {
			keys[c] = key
		}
		return keyOrder(keys)
	}
	return keyOrder(x.keys)
}

// keyOrder returns the class numbers sorted by their keys, where keys[c]
// is class c's key.
func keyOrder[K cmp.Ordered](keys []K) []int {
	order := make([]int, len(keys))
	for c := range order {
		order[c] = c
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	return order
}

// putID writes a big-endian uint32 (big-endian so byte comparison of
// packed keys orders like numeric ID comparison).
func putID(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// getID reads a big-endian uint32 from a packed key.
func getID(s string) uint32 {
	return uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
}

// MinClassSize returns the size of the smallest equivalence class, or 0
// when no unsuppressed records exist.
func MinClassSize(ds *dataset.Dataset, qis []int) int { return MinClassLen(Partition(ds, qis)) }

// IsKAnonymous reports whether every equivalence class (suppressed records
// excluded) has at least k members.
func IsKAnonymous(ds *dataset.Dataset, qis []int, k int) bool {
	return k <= 1 || ClassesKAnonymous(Partition(ds, qis), k)
}

// MinClassLen returns the size of the smallest of the classes, 0 when
// there are none.
func MinClassLen(classes []Class) int {
	min := 0
	for i, c := range classes {
		if i == 0 || len(c.Records) < min {
			min = len(c.Records)
		}
	}
	return min
}

// ClassesKAnonymous reports whether every one of the classes has at least
// k members.
func ClassesKAnonymous(classes []Class, k int) bool {
	for _, c := range classes {
		if len(c.Records) < k {
			return false
		}
	}
	return true
}

// Violation describes a k^m-anonymity violation: an itemset of size <= m
// supported by fewer than k transactions.
type Violation struct {
	Itemset []string
	Support int
}

func (v Violation) String() string {
	return fmt.Sprintf("itemset {%s} support %d", strings.Join(v.Itemset, ","), v.Support)
}

// KMViolations returns every itemset of size 1..m whose support among the
// given transactions is in (0, k), i.e. the k^m-anonymity violations. The
// transactions are item slices (sorted, deduplicated). Violations are
// reported smallest-itemset first and are capped at limit (<=0: no cap);
// Apriori-style algorithms fix violations level by level, so the cap keeps
// incremental runs cheap.
func KMViolations(transactions [][]string, k, m, limit int) []Violation {
	if kmVacuous(k, m) {
		return nil
	}
	return supported(transactions, m, limit, func(s int32) bool { return belowK(s, k) })
}

// FrequentItemsets returns every itemset of size 1..maxSize that at least
// minSupport of the transactions (sorted, deduplicated item slices)
// contain, smaller itemsets first and then in item order.
func FrequentItemsets(transactions [][]string, minSupport, maxSize int) [][]string {
	vs := supported(transactions, maxSize, 0, func(s int32) bool { return int(s) >= minSupport })
	out := make([][]string, len(vs))
	for i, v := range vs {
		out[i] = v.Itemset
	}
	return out
}

// supported lists the itemsets of size 1..m whose support passes keep,
// smallest size first and then in item order, and stops once a level
// brings the list to limit (> 0) entries. Large scans shard the
// transactions across a bounded worker pool; the merged counts (and
// therefore the list and its order) are identical for every worker count.
func supported(transactions [][]string, m, limit int, keep func(support int32) bool) []Violation {
	vals, txs := internTransactions(transactions)
	shards := make([]supportCounts, kmWorkers(txs))
	var out []Violation
	for size := 1; size <= m; size++ {
		out = append(out, countSupports(shards, txs, len(vals), size).selected(vals, keep)...)
		if limit > 0 && len(out) >= limit {
			return out[:limit]
		}
	}
	return out
}

// internTransactions rank-interns the item domain (ID = rank among the
// sorted distinct items, so ID order == item order) and remaps every
// transaction to ascending item IDs. The distinct set is collected
// straight from the nested slices — no flattened copy of every
// occurrence. Because the input slices are sorted, the remap is
// elementwise.
func internTransactions(transactions [][]string) ([]string, [][]uint32) {
	seen := make(map[string]struct{})
	for _, tr := range transactions {
		for _, it := range tr {
			seen[it] = struct{}{}
		}
	}
	vals := make([]string, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	ids := make(map[string]uint32, len(vals))
	for i, v := range vals {
		ids[v] = uint32(i)
	}
	txs := make([][]uint32, len(transactions))
	for t, tr := range transactions {
		if len(tr) == 0 {
			continue
		}
		tx := make([]uint32, len(tr))
		for i, it := range tr {
			tx[i] = ids[it]
		}
		txs[t] = tx
	}
	return vals, txs
}

// IsKMAnonymous reports whether the transactions satisfy k^m-anonymity.
func IsKMAnonymous(transactions [][]string, k, m int) bool {
	return len(KMViolations(transactions, k, m, 1)) == 0
}

// Transactions extracts the item sets of the records at the given indices
// (all records when idx is nil), skipping empty baskets.
func Transactions(ds *dataset.Dataset, idx []int) [][]string {
	var out [][]string
	add := func(items []string) {
		if len(items) > 0 {
			out = append(out, items)
		}
	}
	if idx == nil {
		for r := range ds.Records {
			add(ds.Records[r].Items)
		}
		return out
	}
	for _, r := range idx {
		add(ds.Records[r].Items)
	}
	return out
}

// RTReport summarizes an (k,k^m)-anonymity check over an RT-dataset.
type RTReport struct {
	KAnonymous  bool
	MinClass    int
	BadClasses  int // classes whose transaction part violates k^m
	FirstKMFail *Violation
}

// Holds reports whether the dataset satisfies (k,k^m)-anonymity.
func (r RTReport) Holds() bool { return r.KAnonymous && r.BadClasses == 0 }

// CheckRT verifies (k,k^m)-anonymity per Poulis et al.: the relational part
// is k-anonymous and each equivalence class's transaction multiset is
// k^m-anonymous.
//
// The item domain is rank-interned once over the whole dataset and shared
// by every per-class support scan — re-interning each class's tiny
// transaction set was the dominant allocation cost of verification
// (wall-clock flat, allocs O(classes * class items); pinned by
// TestCheckRTSharedInternerAllocs). Rank IDs order like item names
// globally and therefore within every class, so the per-class violations
// and their order are identical to the per-class-interner ones.
func CheckRT(ds *dataset.Dataset, qis []int, k, m int) RTReport {
	view := &TxView{}
	if ds.HasTransaction() {
		items := make([][]string, len(ds.Records))
		for r := range ds.Records {
			items[r] = ds.Records[r].Items
		}
		view = InternTxView(items)
	}
	return CheckRTClasses(view, Partition(ds, qis), k, m)
}

// CheckRTClasses is CheckRT over a precomputed partition of the records
// and their baskets, rank-interned in v (empty for a dataset without a
// transaction attribute) — for callers that already hold both, like the
// engine evaluator, which derives every relational indicator and this
// check from a single partition of a run's published columns.
func CheckRTClasses(v *TxView, classes []Class, k, m int) RTReport {
	rep := RTReport{KAnonymous: true, MinClass: 0}
	if len(classes) == 0 {
		return rep
	}
	var classTx [][]uint32
	counter := NewKMCounter(v)
	rep.MinClass = len(classes[0].Records)
	for _, c := range classes {
		if len(c.Records) < rep.MinClass {
			rep.MinClass = len(c.Records)
		}
		if len(c.Records) < k {
			rep.KAnonymous = false
		}
		if v.Txs == nil {
			continue
		}
		classTx = classTx[:0]
		for _, r := range c.Records {
			if len(v.Txs[r]) > 0 {
				classTx = append(classTx, v.Txs[r])
			}
		}
		if ids, support := counter.first(classTx, k, m); ids != nil {
			rep.BadClasses++
			if rep.FirstKMFail == nil {
				items := make([]string, len(ids))
				for i, id := range ids {
					items[i] = v.Vals[id]
				}
				rep.FirstKMFail = &Violation{Itemset: items, Support: int(support)}
			}
		}
	}
	return rep
}
