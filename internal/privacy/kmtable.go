package privacy

import (
	"cmp"
	"math/bits"
	"slices"
)

// KMTable is one transaction group's itemset support table: for every
// itemset size 1..m, the distinct itemsets its transactions contain, in
// ascending key order, with their supports, plus the group's own k^m
// violation count. Two tables score a merge of their groups with one
// merge-join (KMTableArena.MergedViolations) and fold into the merged
// group's table (KMTableArena.Fold), so a merge traversal never rescans
// the transactions. Tables come from, and belong to, one KMTableArena.
type KMTable struct {
	levels []kmLevel // levels[s-1] holds the size-s itemsets
	viol   int
}

// kmLevel is one itemset size of a KMTable. A size whose IDs pack into
// one uint64 keys on that packing; wider sizes key on big-endian packed
// strings (the KMViolations packing), which order the same way.
type kmLevel struct {
	keys   []uint64
	wide   []string
	counts []int32 // support of each key, aligned with keys or wide
}

// Violations is the group's own k^m violation count: exactly
// KMCounter.Count(k, m, 0, group) for the arena's k and m.
func (t *KMTable) Violations() int { return t.viol }

// KMTableArena builds, scores and folds the KMTables of one run at one
// (k, m). Build run-length encodes keys and counts from one reusable
// scratch buffer into slices carved from shared backing arrays, so a
// run's tables cost a few allocations, not a map per group. One arena
// serves one goroutine.
type KMTableArena struct {
	k      int
	levels int  // sizes 1..levels can occur: min(m, longest basket)
	width  uint // bits per ID in a packed key

	scratch []uint64
	counts  []int32
	keyBuf  []uint64
	cntBuf  []int32
	lvlBuf  []kmLevel
}

// NewKMTableArena prepares tables for transactions drawn from v at
// k^m-anonymity parameters k and m. With k <= 1 or m <= 0 nothing can
// violate, and every table is empty.
func NewKMTableArena(v *TxView, k, m int) *KMTableArena {
	a := &KMTableArena{k: k, width: 1}
	if n := len(v.Vals); n > 1 {
		a.width = uint(bits.Len(uint(n - 1)))
	}
	if kmVacuous(k, m) {
		return a
	}
	for _, tx := range v.Txs {
		a.levels = max(a.levels, len(tx))
	}
	a.levels = min(a.levels, m)
	return a
}

// packs reports whether a size-s itemset fits one uint64 key.
func (a *KMTableArena) packs(s int) bool { return uint(s)*a.width <= 64 }

// Build returns the support table of the transactions txs (ascending ID
// lists from the arena's view; empty baskets contribute nothing).
func (a *KMTableArena) Build(txs [][]uint32) KMTable {
	t := KMTable{levels: carve(&a.lvlBuf, a.levels)}
	for s := 1; s <= a.levels; s++ {
		lv := &t.levels[s-1]
		if a.packs(s) {
			keys := a.scratch[:0]
			for _, tx := range txs {
				keys = a.appendPacked(keys, tx, s)
			}
			slices.Sort(keys)
			a.scratch = keys
			keys, a.counts = runLengths(keys, a.counts[:0])
			lv.keys, lv.counts = carve(&a.keyBuf, len(keys)), carve(&a.cntBuf, len(keys))
			copy(lv.keys, keys)
			copy(lv.counts, a.counts)
		} else {
			lv.wide, lv.counts = wideRunLengths(txs, s)
		}
		t.viol += a.violating(lv.counts)
	}
	return t
}

// MergedViolations returns the k^m violation count of x's and y's groups
// taken together, Σ over the union of [0 < s_x + s_y < k], exactly
// KMCounter.Count(k, m, 0, gx, gy). Only itemsets both groups contain can
// change status, so the count starts from the two own counts and one
// merge-join per size corrects it for the shared keys.
func (a *KMTableArena) MergedViolations(x, y *KMTable) int {
	n := x.viol + y.viol
	for s := range x.levels {
		lx, ly := &x.levels[s], &y.levels[s]
		if a.packs(s + 1) {
			n += sharedCorrection(lx.keys, lx.counts, ly.keys, ly.counts, a.k)
		} else {
			n += sharedCorrection(lx.wide, lx.counts, ly.wide, ly.counts, a.k)
		}
	}
	return n
}

// Fold makes dst the table of dst's and src's groups taken together.
// src is left as it was; the caller drops it.
func (a *KMTableArena) Fold(dst, src *KMTable) {
	dst.viol = 0
	for s := range dst.levels {
		ld, ls := &dst.levels[s], &src.levels[s]
		if a.packs(s + 1) {
			var keys []uint64
			keys, a.counts = union(ld.keys, ld.counts, ls.keys, ls.counts, a.scratch[:0], a.counts[:0])
			a.scratch = keys
			// The merged table gets arrays of its own, not arena space,
			// so the storage of tables merged away dies with them
			// instead of staying live until the run ends.
			ld.keys, ld.counts = slices.Clone(keys), slices.Clone(a.counts)
		} else {
			ld.wide, ld.counts = union(ld.wide, ld.counts, ls.wide, ls.counts, nil, nil)
		}
		dst.viol += a.violating(ld.counts)
	}
}

// violating counts the supports below k (every stored support is > 0).
func (a *KMTableArena) violating(counts []int32) int {
	n := 0
	for _, c := range counts {
		if int(c) < a.k {
			n++
		}
	}
	return n
}

// appendPacked appends the packed keys of tx's size-s subsets: IDs
// high-to-low in a.width-bit fields, so key order is lexicographic
// itemset order.
func (a *KMTableArena) appendPacked(keys []uint64, tx []uint32, s int) []uint64 {
	switch s {
	case 1:
		for _, id := range tx {
			keys = append(keys, uint64(id))
		}
	case 2:
		for i := 0; i < len(tx); i++ {
			hi := uint64(tx[i]) << a.width
			for _, id := range tx[i+1:] {
				keys = append(keys, hi|uint64(id))
			}
		}
	default:
		ForEachSubset(tx, s, func(sub []uint32) {
			var key uint64
			for _, id := range sub {
				key = key<<a.width | uint64(id)
			}
			keys = append(keys, key)
		})
	}
	return keys
}

// carve returns the next n elements of the backing array *buf, starting
// a new one when the current one is full. New arrays double from 256 to
// 4096 elements, so a small run allocates little and a large one wastes
// at most the tail of each array. Earlier slices keep their array.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, min(2*cap(b), 4096), 256))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// runLengths compacts the sorted keys in place to their distinct values
// and appends each value's run length to counts.
func runLengths[K comparable](keys []K, counts []int32) ([]K, []int32) {
	d := 0
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		keys[d] = keys[i]
		counts = append(counts, int32(j-i))
		d++
		i = j
	}
	return keys[:d], counts
}

// wideRunLengths is Build for a size whose keys do not fit a uint64:
// every subset packs big-endian into one shared string, and the keys
// are substrings of it.
func wideRunLengths(txs [][]uint32, s int) ([]string, []int32) {
	var buf []byte
	for _, tx := range txs {
		ForEachSubset(tx, s, func(sub []uint32) {
			for _, id := range sub {
				buf = append(buf, 0, 0, 0, 0)
				putID(buf[len(buf)-4:], id)
			}
		})
	}
	all := string(buf)
	keys := make([]string, len(all)/(4*s))
	for i := range keys {
		keys[i] = all[4*s*i : 4*s*(i+1)]
	}
	slices.Sort(keys)
	return runLengths(keys, nil)
}

// sharedCorrection is the change in violations when the two sorted
// tables are pooled: for every key both hold, [cx+cy < k] − [cx < k] −
// [cy < k]. Keys only one side holds keep their status.
func sharedCorrection[K cmp.Ordered](xk []K, xc []int32, yk []K, yc []int32, k int) int {
	n := 0
	for i, j := 0, 0; i < len(xk) && j < len(yk); {
		switch {
		case xk[i] < yk[j]:
			i++
		case xk[i] > yk[j]:
			j++
		default:
			cx, cy := int(xc[i]), int(yc[j])
			if cx+cy < k {
				n++
			}
			if cx < k {
				n--
			}
			if cy < k {
				n--
			}
			i++
			j++
		}
	}
	return n
}

// union appends the merge of two sorted tables, summing the supports of
// shared keys, to keys and counts.
func union[K cmp.Ordered](xk []K, xc []int32, yk []K, yc []int32, keys []K, counts []int32) ([]K, []int32) {
	i, j := 0, 0
	for i < len(xk) && j < len(yk) {
		switch {
		case xk[i] < yk[j]:
			keys, counts = append(keys, xk[i]), append(counts, xc[i])
			i++
		case xk[i] > yk[j]:
			keys, counts = append(keys, yk[j]), append(counts, yc[j])
			j++
		default:
			keys, counts = append(keys, xk[i]), append(counts, xc[i]+yc[j])
			i++
			j++
		}
	}
	keys, counts = append(keys, xk[i:]...), append(counts, xc[i:]...)
	keys, counts = append(keys, yk[j:]...), append(counts, yc[j:]...)
	return keys, counts
}
