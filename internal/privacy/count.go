package privacy

import (
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
// strings, and the counting arenas are reused across calls. Every call
// rescans the groups; a caller that scores many merges of the same
// groups keeps KMTable support tables instead, whose counts equal this
// counter's. One counter serves one goroutine; concurrent runs each
// build their own over a shared TxView.
type KMCounter struct {
	numItems int
	sc       kmScratch
	touched  []uint32
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
func (c *KMCounter) Count(k, m, limit int, groups ...[][]uint32) int {
	if kmVacuous(k, m) {
		return 0
	}
	count := 0
	for size := 1; size <= m; size++ {
		count += c.countSize(size, k, groups)
		if limit > 0 && count >= limit {
			return limit
		}
	}
	return count
}

// kmVacuous reports whether k^m-anonymity holds for any transactions:
// with k <= 1 every occurring itemset has enough support, and with m <= 0
// there is no itemset to check.
func kmVacuous(k, m int) bool { return k <= 1 || m <= 0 }

// Anonymous reports whether the groups' transactions, taken together, are
// k^m-anonymous.
func (c *KMCounter) Anonymous(k, m int, groups ...[][]uint32) bool {
	return c.Count(k, m, 1, groups...) == 0
}

// countSize counts the size-subsets with support in (0, k). The support
// structures mirror supportCounts (array / uint64 pairs / packed byte
// keys) so the counted entries are the same ones violations() would have
// listed; only the materialization is gone.
func (c *KMCounter) countSize(size, k int, groups [][][]uint32) int {
	sc := &c.sc
	switch {
	case size == 1:
		if sc.single == nil {
			sc.single = make([]int32, c.numItems)
		}
		// Reset by touched-ID list, not by clearing the whole domain
		// array: per-class groups are tiny against the global domain and
		// one counter serves many of them.
		for _, id := range c.touched {
			sc.single[id] = 0
		}
		c.touched = c.touched[:0]
		for _, txs := range groups {
			for _, tx := range txs {
				for _, id := range tx {
					if sc.single[id] == 0 {
						c.touched = append(c.touched, id)
					}
					sc.single[id]++
				}
			}
		}
		n := 0
		for _, id := range c.touched {
			if s := sc.single[id]; s > 0 && s < int32(k) {
				n++
			}
		}
		return n
	case size == 2:
		if sc.pairs == nil {
			sc.pairs = make(map[uint64]int32)
		} else {
			clear(sc.pairs)
		}
		for _, txs := range groups {
			for _, tx := range txs {
				for i := 0; i < len(tx); i++ {
					hi := uint64(tx[i]) << 32
					for j := i + 1; j < len(tx); j++ {
						sc.pairs[hi|uint64(tx[j])]++
					}
				}
			}
		}
		n := 0
		for _, s := range sc.pairs {
			if s < int32(k) {
				n++
			}
		}
		return n
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
		for _, txs := range groups {
			for _, tx := range txs {
				forEachSubsetIDs(tx, size, func(sub []uint32) {
					for i, id := range sub {
						putID(key[4*i:], id)
					}
					sc.packed[string(key)]++
				})
			}
		}
		n := 0
		for _, s := range sc.packed {
			if s < int32(k) {
				n++
			}
		}
		return n
	}
}
