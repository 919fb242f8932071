package privacy

import (
	"runtime"
	"slices"
	"sync"

	"secreta/internal/dataset"
)

// TxView is an immutable, rank-interned view of a record set's
// transactions: Vals is the sorted distinct item domain and Txs[r] is
// record r's basket as ascending item IDs into Vals (nil for an empty
// basket). A TxView is built once per dataset and shared freely across
// goroutines — the k^m gating loops of the RT bounding methods run
// hundreds of membership checks per run, and re-interning the item domain
// for each one was their dominant cost.
type TxView struct {
	Vals []string
	Txs  [][]uint32
}

// InternTxView rank-interns record-aligned item lists (items[r] is record
// r's basket, which must be sorted as dataset normalization guarantees).
func InternTxView(items [][]string) *TxView {
	vals, txs := internTransactions(items)
	return &TxView{Vals: vals, Txs: txs}
}

// TxViewOf wraps an interned dataset's transaction columns without
// copying: the item dictionary is rank-built and baskets are ascending ID
// lists, exactly the TxView invariants. The view aliases ix's storage and
// shares its immutability.
func TxViewOf(ix *dataset.Indexed) *TxView {
	if ix.ItemDict == nil {
		return &TxView{}
	}
	return &TxView{Vals: ix.ItemDict.Values(), Txs: ix.Items}
}

// KMCounter counts k^m-anonymity violations over ID-interned transaction
// groups without materializing them: no violation structs, no itemset
// strings, and the counting storage is reused across calls. Every call
// rescans the groups; a caller that scores many merges of the same
// groups keeps KMTable support tables instead, whose counts equal this
// counter's. One counter serves one goroutine; concurrent runs each
// build their own over a shared TxView.
type KMCounter struct {
	numItems int
	c        supportCounts
	best     []uint32 // first's smallest violating itemset so far
}

// NewKMCounter builds a counter for transactions drawn from v's domain.
func NewKMCounter(v *TxView) *KMCounter {
	return &KMCounter{numItems: len(v.Vals)}
}

// Count returns the number of k^m-anonymity violations among the
// transactions of all groups taken together — exactly
// len(KMViolations(...)) over the concatenation, without building the
// list. limit > 0 stops early once that many violations exist (the
// callers' common cases are limit 1, "is there any violation", and limit
// 0, "how many"). Empty baskets contribute nothing, so callers pass their
// groups unfiltered.
func (kc *KMCounter) Count(k, m, limit int, groups ...[][]uint32) int {
	if kmVacuous(k, m) {
		return 0
	}
	n := 0
	for size := 1; size <= m; size++ {
		kc.c.count(size, kc.numItems, groups...)
		kc.c.each(func(_ []uint32, s int32) {
			if belowK(s, k) {
				n++
			}
		})
		if limit > 0 && n >= limit {
			return limit
		}
	}
	return n
}

// Anonymous reports whether the groups' transactions, taken together, are
// k^m-anonymous.
func (kc *KMCounter) Anonymous(k, m int, groups ...[][]uint32) bool {
	return kc.Count(k, m, 1, groups...) == 0
}

// first returns the first k^m violation among txs — smallest itemset size
// first, then item order, exactly the first element KMViolations would
// report — as item IDs and support, or nil when the transactions are
// k^m-anonymous. The IDs are valid until the counter's next call.
func (kc *KMCounter) first(txs [][]uint32, k, m int) ([]uint32, int32) {
	if kmVacuous(k, m) {
		return nil, 0
	}
	for size := 1; size <= m; size++ {
		kc.c.count(size, kc.numItems, txs)
		best, support := kc.best[:0], int32(0)
		kc.c.each(func(items []uint32, s int32) {
			if belowK(s, k) && (len(best) == 0 || slices.Compare(items, best) < 0) {
				best, support = append(best[:0], items...), s
			}
		})
		kc.best = best
		if len(best) > 0 {
			return best, support
		}
	}
	return nil, 0
}

// kmVacuous reports whether k^m-anonymity holds for any transactions:
// with k <= 1 every occurring itemset has enough support, and with m <= 0
// there is no itemset to check.
func kmVacuous(k, m int) bool { return k <= 1 || m <= 0 }

// belowK reports whether an itemset that occurs, with the given support,
// violates k^m-anonymity at k.
func belowK(support int32, k int) bool { return int(support) < k }

// supportCounts is the scan-based itemset counter behind KMViolations,
// FrequentItemsets, CheckRT and KMCounter: the supports of every
// size-subset of the transactions added since the last reset, in the
// densest representation the size allows. KMTable keeps sorted tables of
// its own for merge scoring, and internal/transaction's
// aprioriState.count keeps adjustable counts over hierarchy node IDs.
type supportCounts struct {
	size    int
	single  []int32           // size 1: support per item ID
	touched []uint32          // size 1: IDs with nonzero support, so a reset costs O(touched), not O(domain)
	pairs   map[uint64]int32  // size 2: (hi<<32|lo) packed ID pairs
	packed  map[string]*int32 // size >= 3: big-endian packed ID tuples
	key     []byte            // size >= 3: packed-key scratch
	items   []uint32          // each's itemset scratch
}

// reset empties c and prepares it to count size-subsets of item IDs below
// numItems, keeping its storage.
func (c *supportCounts) reset(size, numItems int) {
	for _, id := range c.touched {
		c.single[id] = 0
	}
	c.touched = c.touched[:0]
	c.size = size
	switch {
	case size == 1:
		if len(c.single) < numItems {
			c.single = make([]int32, numItems)
			c.touched = make([]uint32, 0, numItems)
		}
	case size == 2:
		if c.pairs == nil {
			c.pairs = make(map[uint64]int32)
		} else {
			clear(c.pairs)
		}
	default:
		if c.packed == nil {
			c.packed = make(map[string]*int32)
		} else {
			clear(c.packed)
		}
		c.key = slices.Grow(c.key[:0], 4*size)[:4*size]
	}
	c.items = slices.Grow(c.items[:0], size)[:size]
}

// count resets c and counts the size-subsets of every group's
// transactions.
func (c *supportCounts) count(size, numItems int, groups ...[][]uint32) {
	c.reset(size, numItems)
	for _, txs := range groups {
		for _, tx := range txs {
			c.add(tx)
		}
	}
}

// add counts every size-subset of one transaction (ascending item IDs).
// internal/transaction's aprioriState.count is this method's adjustable
// twin; see the comment there before changing key packing or enumeration
// order.
func (c *supportCounts) add(tx []uint32) {
	switch {
	case len(tx) < c.size:
	case c.size == 1:
		for _, id := range tx {
			if c.single[id] == 0 {
				c.touched = append(c.touched, id)
			}
			c.single[id]++
		}
	case c.size == 2:
		for i, lo := range tx {
			hi := uint64(lo) << 32
			for _, id := range tx[i+1:] {
				c.pairs[hi|uint64(id)]++
			}
		}
	default:
		ForEachSubset(tx, c.size, func(sub []uint32) {
			for i, id := range sub {
				putID(c.key[4*i:], id)
			}
			p := c.packed[string(c.key)] // read: no key allocation
			if p == nil {
				p = new(int32)
				c.packed[string(c.key)] = p
			}
			*p++
		})
	}
}

// merge folds other, counted at the same size, into c. Addition commutes,
// so the merged counts do not depend on shard boundaries or completion
// order.
func (c *supportCounts) merge(other *supportCounts) {
	switch c.size {
	case 1:
		for _, id := range other.touched {
			if c.single[id] == 0 {
				c.touched = append(c.touched, id)
			}
			c.single[id] += other.single[id]
		}
	case 2:
		for key, s := range other.pairs {
			c.pairs[key] += s
		}
	default:
		for key, p := range other.packed {
			if q := c.packed[key]; q != nil {
				*q += *p
			} else {
				c.packed[key] = p
			}
		}
	}
}

// each calls fn with every counted itemset, as ascending IDs in a scratch
// slice fn must not keep, and its support (always > 0), in no particular
// order.
func (c *supportCounts) each(fn func(items []uint32, support int32)) {
	items := c.items
	switch c.size {
	case 1:
		for _, id := range c.touched {
			items[0] = id
			fn(items, c.single[id])
		}
	case 2:
		for key, s := range c.pairs {
			items[0], items[1] = uint32(key>>32), uint32(key)
			fn(items, s)
		}
	default:
		for key, p := range c.packed {
			for i := range items {
				items[i] = getID(key[4*i:])
			}
			fn(items, *p)
		}
	}
}

// selected lists the counted itemsets whose support passes keep, named
// through vals, in ascending ID order — which, by rank interning, is the
// item-name order the seed implementation reported.
func (c *supportCounts) selected(vals []string, keep func(support int32) bool) []Violation {
	var ids []uint32
	var sups []int32
	c.each(func(items []uint32, s int32) {
		if keep(s) {
			ids = append(ids, items...)
			sups = append(sups, s)
		}
	})
	if len(sups) == 0 {
		return nil
	}
	size := c.size
	set := func(i int) []uint32 { return ids[i*size : (i+1)*size] }
	order := make([]int, len(sups))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(set(a), set(b)) })
	// One backing array holds every itemset's names.
	names := make([]string, len(ids))
	out := make([]Violation, len(order))
	for i, o := range order {
		itemset := names[i*size : (i+1)*size : (i+1)*size]
		for j, id := range set(o) {
			itemset[j] = vals[id]
		}
		out[i] = Violation{Itemset: itemset, Support: int(sups[o])}
	}
	return out
}

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

// countSupports counts the size-subsets of txs into the shards, each
// scanning a contiguous slice of the transactions, and merges them into
// the first, which it returns. The shards keep their storage from one
// call to the next.
func countSupports(shards []supportCounts, txs [][]uint32, numItems, size int) *supportCounts {
	if len(shards) == 1 {
		shards[0].count(size, numItems, txs)
		return &shards[0]
	}
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[w].count(size, numItems, txs[w*len(txs)/len(shards):(w+1)*len(txs)/len(shards)])
		}()
	}
	wg.Wait()
	for w := 1; w < len(shards); w++ {
		shards[0].merge(&shards[w])
	}
	return &shards[0]
}

// kmWorkers derives the support-scan shard count from the total work on
// offer, not from the transaction count alone: a scan shards when either
// enough transactions (kmParallelMin per shard) or enough item
// occurrences (kmParallelMinWork per shard — dense baskets make the
// subset enumeration expensive even for few transactions) are available,
// and is capped by GOMAXPROCS.
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

// ForEachSubset calls fn with every size-k subset of items, in
// lexicographic order of their positions (for ascending items, in
// lexicographic order). fn's slice is reused between calls.
func ForEachSubset[T any](items []T, k int, fn func([]T)) {
	n := len(items)
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sub := make([]T, k)
	for {
		for i, j := range idx {
			sub[i] = items[j]
		}
		fn(sub)
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
