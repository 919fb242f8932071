package transaction

import (
	"context"
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/obs"
	"secreta/internal/privacy"
	"secreta/internal/timing"
)

// Apriori implements the Apriori anonymization algorithm (AA) of Terrovitis
// et al.: it enforces k^m-anonymity level-wise. For i = 1..m it finds
// itemsets of size i (over the current generalization) supported by fewer
// than k transactions and repairs each by generalizing one of its items up
// the hierarchy, picking the item whose full-subtree generalization costs
// the least NCP. Because generalization only merges supports, repairs at
// level i never reintroduce violations at levels < i.
//
// The run lives on hierarchy node IDs from input to output: items resolve
// to IDs once, transactions are sorted ID lists mapped through the cut,
// per-size support counts are kept incrementally, a repair re-counts only
// the transactions that contain the generalized subtree (found through a
// postings index), and the output is published from the mapped ID lists.
func Apriori(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	items, err := opts.resolveItems(ds)
	if err != nil {
		return nil, err
	}
	cut := hierarchy.NewLeafCut(opts.ItemHierarchy)
	sw.Mark("setup")
	st, gens, err := repairCut(opts.Ctx, items, nil, cut, opts.K, opts.M, nil, pairTableCap)
	if err != nil {
		return nil, err
	}
	sw.Mark("generalize")
	out, dict := publishLabels(st.txs, st.ix.Len(), st.ix.Value)
	sw.Mark("recode")
	return &Result{Items: out, ItemDict: dict, Phases: sw.Phases(), Cut: cut, Generalizations: gens}, nil
}

// pairTableCap bounds the flat size-2 support table, in int32 slots
// (64 KiB). Hierarchies of up to 128 nodes count pairs in the table;
// larger ones keep them in a map, whose size follows the pairs that
// occur rather than the node count squared.
const pairTableCap = 1 << 14

// pairSlots returns the length of the flat pair table for a hierarchy of
// n nodes: n*n while that stays within limit, 0 above it, where the run
// counts pairs in a map instead.
func pairSlots(n, limit int) int {
	if n*n > limit {
		return 0
	}
	return n * n
}

// repairCut runs the AA repair loop over the records at indices idx (all
// when nil) of items (record-aligned node-ID lists from resolveItems),
// mutating cut in place: repairs made before an error stay on it, so
// VPA's verification pass starts from an infeasible part's partial
// repairs. When allowed (indexed by node ID) is non-nil, only those items
// take part, and only items whose cut node's leaves are all allowed may
// be generalized (VPA restricts repairs to one vertical part). pairLimit
// picks the size-2 layout (see pairSlots). ctx (nil-able) is polled each
// repair round and inside the scans, so a cancelled run stops within one
// round. Returns the final state, whose mapped transactions are the
// output, and the number of generalizations.
func repairCut(ctx context.Context, items [][]int32, idx []int, cut *hierarchy.Cut, k, m int, allowed []bool, pairLimit int) (*aprioriState, int, error) {
	st := newAprioriState(items, idx, cut, allowed, pairLimit)
	gens := 0
	// NCP deltas are compared through the exact float operations of
	// Cut.NCP, so the repair choice (and with it the whole run) matches
	// the string path bit for bit.
	total := st.ix.NumLeaves()
	denom := float64(total-1) * float64(total)
	for size := 1; size <= m; size++ {
		if err := st.buildCounts(ctx, size); err != nil {
			return st, gens, err
		}
		obs.FromCtx(ctx).Event("apriori_round",
			obs.Int("size", size), obs.Int("generalizations", gens))
		for {
			if err := ctxErr(ctx); err != nil {
				return st, gens, err
			}
			viol := st.minViolation(k)
			if viol == nil {
				break
			}
			// Pick the item of the violating set whose generalization
			// increases the cut NCP least, among items allowed to move.
			// Candidates are tried in item-name order with a strict-less
			// comparison — the seed's tie-break.
			bestID := int32(-1)
			bestCost := 0.0
			base := st.cut.NCPNumerator()
			for _, id := range viol {
				p := st.ix.Parent(id)
				if p < 0 {
					continue
				}
				if st.allowedPrefix != nil && !st.subtreeAllowed(p) {
					continue
				}
				delta, ok := st.cut.GeneralizeDeltaNum(id)
				if !ok {
					continue
				}
				cost := 0.0
				if total > 1 {
					cost = float64(base+delta)/denom - float64(base)/denom
				}
				if bestID < 0 || cost < bestCost {
					bestID, bestCost = id, cost
				}
			}
			if bestID < 0 {
				names := make([]string, len(viol))
				for i, id := range viol {
					names[i] = st.ix.Value(id)
				}
				return st, gens, fmt.Errorf("apriori: cannot repair violation %v (k=%d, m=%d): all items fully generalized", names, k, m)
			}
			if err := st.repair(ctx, bestID); err != nil {
				return st, gens, err
			}
			gens++
		}
	}
	return st, gens, nil
}

// aprioriState is the working set of one repair run, all on hierarchy
// node IDs: mapped transactions as ascending ID lists, a postings index
// from node ID to the transactions containing it, and the support counts
// of the current subset size.
type aprioriState struct {
	ix  *hierarchy.Index
	cut *hierarchy.Cut
	// txs[t] is transaction t's items mapped through the cut, ascending
	// and deduplicated. All lists share one backing array, each capped at
	// its own length; repairs only shrink them in place.
	txs [][]int32
	// postings[id] lists the transactions whose mapped items include id;
	// kept exact across repairs so a repair visits only the transactions
	// that actually contain the generalized subtree. seen is repair's
	// scratch for deduplicating their union.
	postings [][]int32
	seen     []bool
	// allowedPrefix, when non-nil, holds prefix sums of the allowed-leaf
	// indicator over leaf ordinals (VPA's vertical restriction):
	// a subtree is movable iff its leaf range is all-allowed.
	allowedPrefix []int32

	// Support counts of the current size, densest representation first:
	// an array over node IDs for single items; for pairs a flat table
	// (slot a*n+b for a < b) while pairSlots allows it, a map of packed
	// uint64 pairs beyond; byte tuples for larger sizes. live lists the
	// table's slots that have held a non-zero count since minViolation
	// last dropped the zero ones, so no scan walks the whole table. buf
	// is the reusable packed-key scratch.
	size      int
	pairLimit int
	single    []int32
	pairTab   []int32
	live      []int32
	pairs     map[uint64]int32
	packed    map[string]*int32
	buf       []byte

	// candIDs/bestIDs are minViolation's reusable comparison buffers: the
	// scan keeps only the name-wise smallest violating itemset, so per-
	// candidate name slices and sort.Sort boxing would be pure garbage.
	candIDs []int32
	bestIDs []int32
}

func newAprioriState(items [][]int32, idx []int, cut *hierarchy.Cut, allowed []bool, pairLimit int) *aprioriState {
	ix := cut.Index()
	n := len(items)
	if idx != nil {
		n = len(idx)
	}
	rec := func(t int) int {
		if idx == nil {
			return t
		}
		return idx[t]
	}
	st := &aprioriState{
		ix: ix, cut: cut, pairLimit: pairLimit,
		txs:      make([][]int32, n),
		postings: make([][]int32, ix.Len()),
		seen:     make([]bool, n),
	}
	if allowed != nil {
		st.allowedPrefix = make([]int32, ix.NumLeaves()+1)
		for o := int32(0); o < int32(ix.NumLeaves()); o++ {
			st.allowedPrefix[o+1] = st.allowedPrefix[o]
			if allowed[ix.LeafID(o)] {
				st.allowedPrefix[o+1]++
			}
		}
	}
	total := 0
	for t := range st.txs {
		total += len(items[rec(t)])
	}
	// Mapping through a cut never reorders preorder IDs (a cut's subtrees
	// are disjoint ID ranges), so ascending items map to a non-decreasing
	// list and duplicates are adjacent.
	flat := make([]int32, 0, total)
	postLen := make([]int32, ix.Len())
	for t := range st.txs {
		start := len(flat)
		for _, id := range items[rec(t)] {
			if allowed != nil && !allowed[id] {
				continue
			}
			g := cut.MapID(id)
			if len(flat) > start && flat[len(flat)-1] == g {
				continue
			}
			flat = append(flat, g)
			postLen[g]++
		}
		if len(flat) > start {
			st.txs[t] = flat[start:len(flat):len(flat)]
		}
	}
	// Postings share one backing array too: each node's list is carved
	// out at its final length, then filled in transaction order.
	post := make([]int32, len(flat))
	for id, l := range postLen {
		if l > 0 {
			st.postings[id] = post[:0:l]
			post = post[l:]
		}
	}
	for t, tx := range st.txs {
		for _, id := range tx {
			st.postings[id] = append(st.postings[id], int32(t))
		}
	}
	return st
}

// subtreeAllowed reports whether every leaf under id is in the allowed
// part — an O(1) prefix-sum check over the subtree's leaf-ordinal range.
func (st *aprioriState) subtreeAllowed(id int32) bool {
	lo, hi := st.ix.LeafRange(id)
	return st.allowedPrefix[hi]-st.allowedPrefix[lo] == hi-lo
}

// cancelStride is how many transactions a support scan processes between
// context polls: the per-transaction subset enumeration is the expensive
// part, so a small stride keeps cancellation prompt at no measurable cost.
const cancelStride = 256

// buildCounts scans every transaction once and counts its size-subsets —
// the only full scan a level needs; repairs afterwards adjust these counts
// incrementally.
func (st *aprioriState) buildCounts(ctx context.Context, size int) error {
	st.size = size
	st.single, st.pairTab, st.live, st.pairs, st.packed = nil, nil, nil, nil, nil
	switch {
	case size == 1:
		st.single = make([]int32, st.ix.Len())
	case size == 2:
		if slots := pairSlots(st.ix.Len(), st.pairLimit); slots > 0 {
			st.pairTab = make([]int32, slots)
		} else {
			st.pairs = make(map[uint64]int32)
		}
	default:
		st.packed = make(map[string]*int32)
		st.buf = make([]byte, 4*size)
	}
	for t, tx := range st.txs {
		if t%cancelStride == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		st.count(tx, 1)
	}
	return nil
}

// addPair adds d to the support of the pair a < b.
func (st *aprioriState) addPair(a, b, d int32) {
	if st.pairTab != nil {
		s := a*int32(st.ix.Len()) + b
		old := st.pairTab[s]
		if old == 0 {
			st.live = append(st.live, s)
		}
		st.pairTab[s] = old + d
		return
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if v := st.pairs[key] + d; v == 0 {
		delete(st.pairs, key)
	} else {
		st.pairs[key] = v
	}
}

// count adds d (+1 or -1) to the support of every size-subset of tx.
//
// This mirrors supportCounts.add, internal/privacy's scan-only itemset
// counter, with two deliberate differences that keep them separate
// implementations: counts here are adjustable (zeroed entries must leave
// the violation scans: maps delete them, the pair table's live list drops
// them) and IDs are hierarchy node IDs
// (int32), not item ranks. Both encode the same invariants — big-endian
// packing so byte order equals ID order, lexicographic subset enumeration
// (privacy.ForEachSubset) over ascending IDs — and the equivalence tests
// in equiv_test.go / privacy's equiv_test.go pin each against the seed
// behavior, so drift in either is caught.
func (st *aprioriState) count(tx []int32, d int32) {
	if len(tx) < st.size {
		return
	}
	switch st.size {
	case 1:
		for _, id := range tx {
			st.single[id] += d
		}
	case 2:
		for i, a := range tx {
			for _, b := range tx[i+1:] {
				st.addPair(a, b, d)
			}
		}
	default:
		buf := st.buf
		privacy.ForEachSubset(tx, st.size, func(sub []int32) {
			for i, id := range sub {
				v := uint32(id)
				buf[4*i] = byte(v >> 24)
				buf[4*i+1] = byte(v >> 16)
				buf[4*i+2] = byte(v >> 8)
				buf[4*i+3] = byte(v)
			}
			p := st.packed[string(buf)]
			if p == nil {
				if d < 0 {
					return
				}
				p = new(int32)
				st.packed[string(buf)] = p
			}
			*p += d
			if *p == 0 {
				delete(st.packed, string(buf))
			}
		})
	}
}

// minViolation returns the violating itemset that is smallest in
// item-name order — exactly the first violation the seed's sorted scan
// repaired — as IDs sorted by item name (the order the repair loop tries
// candidates in), or nil when the level is clean. The scan allocates
// nothing: candidate IDs go through reusable buffers, compared by the
// index's value order, and the result is one of them, valid until the
// next call. A pair-table scan walks the live slots, dropping those whose
// count has fallen to zero.
func (st *aprioriState) minViolation(k int) []int32 {
	if cap(st.candIDs) < st.size {
		st.candIDs = make([]int32, st.size)
		st.bestIDs = make([]int32, st.size)
	}
	cand := st.candIDs[:st.size]
	best := st.bestIDs[:st.size]
	haveBest := false
	// consider sorts cand by item name (hierarchy values are distinct, so
	// the order matches the seed's sort.Sort) and keeps it iff it is
	// strictly name-less than the running best — the seed's tie-break.
	consider := func() {
		for i := 1; i < len(cand); i++ {
			for j := i; j > 0 && st.ix.Order(cand[j]) < st.ix.Order(cand[j-1]); j-- {
				cand[j], cand[j-1] = cand[j-1], cand[j]
			}
		}
		if !haveBest || lessIDNames(st.ix, cand, best) {
			copy(best, cand)
			haveBest = true
		}
	}
	switch {
	case st.size == 1:
		for id, s := range st.single {
			if s > 0 && s < int32(k) {
				cand[0] = int32(id)
				consider()
			}
		}
	case st.pairTab != nil:
		n := int32(st.ix.Len())
		live := st.live[:0]
		for _, slot := range st.live {
			s := st.pairTab[slot]
			if s == 0 {
				continue
			}
			live = append(live, slot)
			if s < int32(k) {
				cand[0], cand[1] = slot/n, slot%n
				consider()
			}
		}
		st.live = live
	case st.size == 2:
		for key, s := range st.pairs {
			if s < int32(k) {
				cand[0], cand[1] = int32(uint32(key>>32)), int32(uint32(key))
				consider()
			}
		}
	default:
		for key, p := range st.packed {
			if *p < int32(k) {
				for i := range cand {
					cand[i] = int32(uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3]))
				}
				consider()
			}
		}
	}
	if !haveBest {
		return nil
	}
	return best
}

// lessIDNames compares equal-length, name-sorted ID tuples by their item
// names lexicographically.
func lessIDNames(ix *hierarchy.Index, a, b []int32) bool {
	for i := range a {
		if ao, bo := ix.Order(a[i]), ix.Order(b[i]); ao != bo {
			return ao < bo
		}
	}
	return false
}

// repair generalizes the cut node of id to its parent and refreshes the
// state incrementally: only the transactions whose mapped items intersect
// the parent's subtree (per the postings index) are re-mapped, and only
// their subsets that touch the subtree are re-counted; every other subset
// is untouched.
func (st *aprioriState) repair(ctx context.Context, id int32) error {
	p := st.ix.Parent(id)
	end := p + st.ix.SubtreeSize(p)
	if err := st.cut.GeneralizeID(id); err != nil {
		return err
	}
	// Union the postings of every node in the subtree's ID range.
	var affected []int32
	for j := p; j < end; j++ {
		for _, t := range st.postings[j] {
			if !st.seen[t] {
				st.seen[t] = true
				affected = append(affected, t)
			}
		}
		st.postings[j] = nil
	}
	for _, t := range affected {
		st.seen[t] = false
	}
	for n, t := range affected {
		if n%cancelStride == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		st.collapse(int(t), p, end)
	}
	st.postings[p] = affected
	return nil
}

// collapse replaces transaction t's items inside the ID range [p, end) —
// one contiguous run of its ascending list — by p, and moves the support
// counts along. Sizes 1 and 2 adjust only the subsets that touch the run;
// larger sizes re-count the whole transaction. Every pair a repair adds
// holds p and every pair it removes holds an item that leaves all
// transactions for good, so a pair-table slot that reaches zero stays
// there and the live list never holds a slot twice.
func (st *aprioriState) collapse(t int, p, end int32) {
	tx := st.txs[t]
	i0 := 0
	for i0 < len(tx) && tx[i0] < p {
		i0++
	}
	i1 := i0
	for i1 < len(tx) && tx[i1] < end {
		i1++
	}
	run, before, after := tx[i0:i1], tx[:i0], tx[i1:]
	if len(run) == 1 && run[0] == p {
		return
	}
	// gone holds the run's items that disappear: all of it, or all but p
	// when the transaction already held p.
	gone := run
	if run[0] == p {
		gone = run[1:]
	}
	switch st.size {
	case 1:
		if len(gone) == len(run) {
			st.single[p]++
		}
		for _, v := range gone {
			st.single[v]--
		}
	case 2:
		if len(gone) == len(run) {
			for _, o := range before {
				st.addPair(o, p, 1)
			}
			for _, o := range after {
				st.addPair(p, o, 1)
			}
		}
		for _, v := range gone {
			for _, o := range before {
				st.addPair(o, v, -1)
			}
			for _, o := range after {
				st.addPair(v, o, -1)
			}
		}
		for i, a := range run {
			for _, b := range run[i+1:] {
				st.addPair(a, b, -1)
			}
		}
	default:
		st.count(tx, -1)
	}
	tx[i0] = p
	tx = tx[:i0+1+copy(tx[i0+1:], after)]
	st.txs[t] = tx
	if st.size > 2 {
		st.count(tx, 1)
	}
}

// ctxErr returns ctx's error, treating nil as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
