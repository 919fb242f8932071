// Package privacy implements the privacy models SECRETA's algorithms
// enforce and its evaluator verifies: k-anonymity over relational
// quasi-identifiers, k^m-anonymity over the transaction attribute
// (Terrovitis et al.), and their combination (k,k^m)-anonymity for
// RT-datasets (Poulis et al.).
//
// The hot paths run on the interned columnar core: Partition keys
// equivalence classes by packed big-endian uint32 signature tuples over
// rank-interned columns (so byte order equals value order), and the k^m
// support scan counts itemsets of dense item IDs — a counts array for
// single items, a uint64-keyed map for pairs, packed byte keys beyond —
// sharded across a bounded worker pool and merged additively, which keeps
// the output deterministic for any worker count.
package privacy

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/obs"
)

// Class is one equivalence class: the indices of records sharing a QI
// signature.
type Class struct {
	Signature []string
	Records   []int
}

// Partition groups records by their QI signature, skipping suppressed
// records, and returns classes sorted by signature for determinism. The
// columns are rank-interned once and the signature key is packed from the
// per-column value ranks — a single mixed-radix uint64 when the
// cardinality product fits (the overwhelmingly common case on the
// generalized candidates the algorithms partition in their loops), a
// big-endian byte tuple otherwise. Either way grouping allocates per
// class, not per record, and key order equals signature order.
func Partition(ds *dataset.Dataset, qis []int) []Class {
	n := len(ds.Records)
	if len(qis) == 0 {
		// No signature columns: nothing is suppressed and every record
		// shares the empty signature.
		if n == 0 {
			return []Class{}
		}
		recs := make([]int, n)
		for i := range recs {
			recs[i] = i
		}
		return []Class{{Signature: []string{}, Records: recs}}
	}
	cols, dicts := dataset.InternColumns(ds, qis)
	// Suppression becomes an ID comparison: a record is suppressed when
	// every QI cell carries the marker's rank. If any column never holds
	// the marker, no record is suppressed.
	supIDs := make([]uint32, len(qis))
	haveSup := true
	for i, d := range dicts {
		id, ok := d.ID(generalize.Suppressed)
		if !ok {
			haveSup = false
			break
		}
		supIDs[i] = id
	}
	suppressed := func(r int) bool {
		if !haveSup {
			return false
		}
		for i := range cols {
			if cols[i][r] != supIDs[i] {
				return false
			}
		}
		return true
	}
	// Mixed-radix packing: key = ((id0*card1)+id1)*card2 + ... preserves
	// tuple order, and tuple order over ranks is signature order.
	radix := uint64(1)
	packable := true
	for _, d := range dicts {
		card := uint64(d.Len())
		if card == 0 {
			card = 1
		}
		if radix > (1<<63)/card {
			packable = false
			break
		}
		radix *= card
	}
	var reps, order []int
	var recs [][]int
	if packable {
		cards := make([]uint64, len(dicts))
		for i, d := range dicts {
			cards[i] = uint64(d.Len())
		}
		index := make(map[uint64]int)
		var keys []uint64
		for r := 0; r < n; r++ {
			if suppressed(r) {
				continue
			}
			key := uint64(0)
			for i := range cols {
				key = key*cards[i] + uint64(cols[i][r])
			}
			gi, ok := index[key]
			if !ok {
				gi = len(recs)
				index[key] = gi
				keys = append(keys, key)
				recs = append(recs, nil)
				reps = append(reps, r)
			}
			recs[gi] = append(recs[gi], r)
		}
		order = make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	} else {
		index := make(map[string]int)
		var keys []string
		buf := make([]byte, 4*len(qis))
		for r := 0; r < n; r++ {
			if suppressed(r) {
				continue
			}
			for i := range cols {
				putID(buf[4*i:], cols[i][r])
			}
			gi, ok := index[string(buf)]
			if !ok {
				gi = len(recs)
				index[string(buf)] = gi
				keys = append(keys, string(buf))
				recs = append(recs, nil)
				reps = append(reps, r)
			}
			recs[gi] = append(recs[gi], r)
		}
		order = make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	}
	out := make([]Class, len(order))
	for oi, gi := range order {
		sig := make([]string, len(qis))
		for i := range sig {
			sig[i] = dicts[i].Value(cols[i][reps[gi]])
		}
		out[oi] = Class{Signature: sig, Records: recs[gi]}
	}
	return out
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
func MinClassSize(ds *dataset.Dataset, qis []int) int {
	classes := Partition(ds, qis)
	if len(classes) == 0 {
		return 0
	}
	min := len(ds.Records)
	for _, c := range classes {
		if len(c.Records) < min {
			min = len(c.Records)
		}
	}
	return min
}

// IsKAnonymous reports whether every equivalence class (suppressed records
// excluded) has at least k members.
func IsKAnonymous(ds *dataset.Dataset, qis []int, k int) bool {
	if k <= 1 {
		return true
	}
	for _, c := range Partition(ds, qis) {
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
	out, _ := KMViolationsCtx(nil, transactions, k, m, limit)
	return out
}

// cancelCheckStride is how many transactions a support scan processes
// between context polls. The subset enumeration per transaction is the
// expensive part (O(C(|t|, size))), so a small stride keeps the
// cancellation delay well under the service's promptness budget without
// measurable overhead.
const cancelCheckStride = 256

// kmParallelMin is the per-shard transaction count below which sharding
// costs more than it saves; kmParallelMinWork is the same floor expressed
// in item occurrences, so dense baskets (where the per-transaction subset
// enumeration is the real cost) shard even when the transaction count
// alone looks small. The pool width itself is bounded only by
// runtime.GOMAXPROCS — there is no fixed cap hiding cores.
const (
	kmParallelMin     = 1024
	kmParallelMinWork = 4096
)

// KMViolationsCtx is KMViolations with cooperative cancellation: ctx (nil
// to disable) is polled every few hundred transactions during the support
// scan — the hot path of Apriori-style repair loops — so a cancelled run
// aborts mid-scan instead of finishing the level. Large scans shard the
// transactions across a bounded worker pool; the merged counts (and
// therefore the reported violations and their order) are identical for
// every worker count.
func KMViolationsCtx(ctx context.Context, transactions [][]string, k, m, limit int) ([]Violation, error) {
	if k <= 1 || m <= 0 {
		return nil, nil
	}
	vals, txs := internTransactions(transactions)
	obs.FromCtx(ctx).Event("km_scan",
		obs.Int("transactions", len(txs)), obs.Int("m", m))
	var out []Violation
	for size := 1; size <= m; size++ {
		counts, err := countSupports(ctx, txs, len(vals), size)
		if err != nil {
			return nil, err
		}
		for _, v := range counts.violations(k, vals) {
			out = append(out, v)
			if limit > 0 && len(out) >= limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// kmScratch is reusable support-count state for repeated small scans over
// one shared item domain — CheckRT threads a single instance through its
// per-class checks so verification allocates per dataset, not per class.
type kmScratch struct {
	single []int32
	pairs  map[uint64]int32
	packed map[string]int32
	buf    []byte
}

// firstKMViolation returns the first k^m violation among txs — smallest
// itemset size first, then item-rank (= item-name) order, exactly the
// first element KMViolations would report — or nil when the transactions
// are k^m-anonymous. vals is the rank-interned item domain the IDs in txs
// index; sc's buffers are cleared and reused across calls.
func firstKMViolation(vals []string, txs [][]uint32, k, m int, sc *kmScratch) *Violation {
	if kmVacuous(k, m) {
		return nil
	}
	for size := 1; size <= m; size++ {
		switch {
		case size == 1:
			if sc.single == nil {
				sc.single = make([]int32, len(vals))
			} else {
				clear(sc.single)
			}
			for _, tx := range txs {
				for _, id := range tx {
					sc.single[id]++
				}
			}
			for id, s := range sc.single {
				if s > 0 && s < int32(k) {
					return &Violation{Itemset: []string{vals[id]}, Support: int(s)}
				}
			}
		case size == 2:
			if sc.pairs == nil {
				sc.pairs = make(map[uint64]int32)
			} else {
				clear(sc.pairs)
			}
			for _, tx := range txs {
				for i := 0; i < len(tx); i++ {
					hi := uint64(tx[i]) << 32
					for j := i + 1; j < len(tx); j++ {
						sc.pairs[hi|uint64(tx[j])]++
					}
				}
			}
			best, bestSup, found := uint64(0), int32(0), false
			for key, s := range sc.pairs {
				if s < int32(k) && (!found || key < best) {
					best, bestSup, found = key, s, true
				}
			}
			if found {
				return &Violation{
					Itemset: []string{vals[uint32(best>>32)], vals[uint32(best)]},
					Support: int(bestSup),
				}
			}
		default:
			if sc.packed == nil {
				sc.packed = make(map[string]int32)
			} else {
				clear(sc.packed)
			}
			if len(sc.buf) < 4*size {
				sc.buf = make([]byte, 4*size)
			}
			key := sc.buf[:4*size]
			for _, tx := range txs {
				forEachSubsetIDs(tx, size, func(sub []uint32) {
					for i, id := range sub {
						putID(key[4*i:], id)
					}
					sc.packed[string(key)]++
				})
			}
			best, bestSup, found := "", int32(0), false
			for k2, s := range sc.packed {
				if s < int32(k) && (!found || k2 < best) {
					best, bestSup, found = k2, s, true
				}
			}
			if found {
				items := make([]string, size)
				for i := range items {
					items[i] = vals[getID(best[4*i:])]
				}
				return &Violation{Itemset: items, Support: int(bestSup)}
			}
		}
	}
	return nil
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

// supportCounts holds the per-itemset supports of one subset size in the
// densest representation the size allows.
type supportCounts struct {
	size   int
	single []int32           // size 1: support per item ID
	pairs  map[uint64]int32  // size 2: (hi<<32|lo) packed ID pairs
	packed map[string]*int32 // size >= 3: big-endian packed ID tuples
}

func newSupportCounts(size, numItems int) *supportCounts {
	c := &supportCounts{size: size}
	switch {
	case size == 1:
		c.single = make([]int32, numItems)
	case size == 2:
		c.pairs = make(map[uint64]int32)
	default:
		c.packed = make(map[string]*int32)
	}
	return c
}

// add counts every size-subset of one transaction. buf is a scratch key
// buffer of at least 4*size bytes (unused for sizes 1 and 2).
// internal/transaction's aprioriState.count is this structure's
// incremental twin (adjustable counts over node IDs); see the comment
// there before changing key packing or enumeration order.
func (c *supportCounts) add(tx []uint32, buf []byte) {
	if len(tx) < c.size {
		return
	}
	switch c.size {
	case 1:
		for _, id := range tx {
			c.single[id]++
		}
	case 2:
		for i := 0; i < len(tx); i++ {
			hi := uint64(tx[i]) << 32
			for j := i + 1; j < len(tx); j++ {
				c.pairs[hi|uint64(tx[j])]++
			}
		}
	default:
		forEachSubsetIDs(tx, c.size, func(sub []uint32) {
			for i, id := range sub {
				putID(buf[4*i:], id)
			}
			key := buf[:4*c.size]
			p := c.packed[string(key)] // read: no key allocation
			if p == nil {
				p = new(int32)
				c.packed[string(key)] = p
			}
			*p++
		})
	}
}

// merge folds other into c. Addition commutes, so the merged counts do not
// depend on shard boundaries or completion order.
func (c *supportCounts) merge(other *supportCounts) {
	switch c.size {
	case 1:
		for i, v := range other.single {
			c.single[i] += v
		}
	case 2:
		for k, v := range other.pairs {
			c.pairs[k] += v
		}
	default:
		for k, p := range other.packed {
			if q := c.packed[k]; q != nil {
				*q += *p
			} else {
				c.packed[k] = p
			}
		}
	}
}

// violations lists the itemsets with support in (0, k), sorted by packed
// key — which, by rank interning, is the item-name order the seed
// implementation reported.
func (c *supportCounts) violations(k int, vals []string) []Violation {
	var out []Violation
	switch c.size {
	case 1:
		for id, s := range c.single {
			if s > 0 && s < int32(k) {
				out = append(out, Violation{Itemset: []string{vals[id]}, Support: int(s)})
			}
		}
	case 2:
		var keys []uint64
		for key, s := range c.pairs {
			if s < int32(k) {
				keys = append(keys, key)
			}
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, key := range keys {
			out = append(out, Violation{
				Itemset: []string{vals[uint32(key>>32)], vals[uint32(key)]},
				Support: int(c.pairs[key]),
			})
		}
	default:
		var keys []string
		for key, p := range c.packed {
			if *p < int32(k) {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			items := make([]string, c.size)
			for i := range items {
				items[i] = vals[getID(key[4*i:])]
			}
			out = append(out, Violation{Itemset: items, Support: int(*c.packed[key])})
		}
	}
	return out
}

// countSupports scans all transactions for one subset size. Scans big
// enough to amortize goroutine startup shard across up to GOMAXPROCS
// workers; each shard polls ctx on the usual stride, so cancellation stays
// as prompt as the serial scan.
func countSupports(ctx context.Context, txs [][]uint32, numItems, size int) (*supportCounts, error) {
	return countSupportsWidth(ctx, txs, numItems, size, kmWorkers(txs))
}

// countSupportsWidth is countSupports at an explicit shard width — split
// out so the deterministic-merge property can be tested at every width,
// not just the one kmWorkers happens to pick on the test machine.
func countSupportsWidth(ctx context.Context, txs [][]uint32, numItems, size, workers int) (*supportCounts, error) {
	if workers <= 1 {
		c := newSupportCounts(size, numItems)
		buf := make([]byte, 4*size)
		for ti, tx := range txs {
			if ctx != nil && ti%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			c.add(tx, buf)
		}
		return c, nil
	}
	shards := make([]*supportCounts, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newSupportCounts(size, numItems)
			buf := make([]byte, 4*size)
			lo, hi := w*len(txs)/workers, (w+1)*len(txs)/workers
			for ti := lo; ti < hi; ti++ {
				if ctx != nil && (ti-lo)%cancelCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						errs[w] = err
						return
					}
				}
				c.add(txs[ti], buf)
			}
			shards[w] = c
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := shards[0]
	for _, c := range shards[1:] {
		total.merge(c)
	}
	return total, nil
}

// kmWorkers derives the support-scan shard count from the total work on
// offer, not from the transaction count alone: a scan shards when either
// enough transactions (kmParallelMin per shard) or enough item
// occurrences (kmParallelMinWork per shard — dense baskets make the
// subset enumeration expensive even for few transactions) are available,
// and is capped by GOMAXPROCS. The old derivation floored
// len(txs)/kmParallelMin to 0–1 and silently serialized every dataset
// under ~2*kmParallelMin transactions regardless of how much work each
// transaction carried.
func kmWorkers(txs [][]uint32) int {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 {
		return 1
	}
	work := 0
	for _, tx := range txs {
		work += len(tx)
	}
	shards := work / kmParallelMinWork
	if byTx := len(txs) / kmParallelMin; byTx > shards {
		shards = byTx
	}
	if shards < 2 {
		return 1
	}
	if workers > shards {
		workers = shards
	}
	return workers
}

// forEachSubsetIDs enumerates all size-k subsets of the ascending slice
// items in lexicographic order.
func forEachSubsetIDs(items []uint32, k int, fn func([]uint32)) {
	n := len(items)
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sub := make([]uint32, k)
	for {
		for i, j := range idx {
			sub[i] = items[j]
		}
		fn(sub)
		// Advance combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
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
	return CheckRTClasses(ds, Partition(ds, qis), k, m)
}

// CheckRTClasses is CheckRT over a precomputed partition of ds (as
// returned by Partition(ds, qis)) — for callers that already hold the
// classes, like the engine evaluator, which derives every relational
// indicator and this check from a single partition.
func CheckRTClasses(ds *dataset.Dataset, classes []Class, k, m int) RTReport {
	rep := RTReport{KAnonymous: true, MinClass: 0}
	if len(classes) == 0 {
		rep.MinClass = 0
		return rep
	}
	var vals []string
	var txs [][]uint32
	if ds.HasTransaction() {
		items := make([][]string, len(ds.Records))
		for r := range ds.Records {
			items[r] = ds.Records[r].Items
		}
		vals, txs = internTransactions(items)
	}
	var classTx [][]uint32
	var sc kmScratch
	rep.MinClass = len(ds.Records)
	for _, c := range classes {
		if len(c.Records) < rep.MinClass {
			rep.MinClass = len(c.Records)
		}
		if len(c.Records) < k {
			rep.KAnonymous = false
		}
		if ds.HasTransaction() {
			classTx = classTx[:0]
			for _, r := range c.Records {
				if len(txs[r]) > 0 {
					classTx = append(classTx, txs[r])
				}
			}
			if v := firstKMViolation(vals, classTx, k, m, &sc); v != nil {
				rep.BadClasses++
				if rep.FirstKMFail == nil {
					rep.FirstKMFail = v
				}
			}
		}
	}
	return rep
}
