package transaction

import (
	"context"
	"fmt"
	"sort"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
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
// The repair loop runs on the interned core: transactions are sorted
// dense-ID lists mapped through the cut, per-size support counts are
// maintained incrementally, and a repair re-maps and re-counts only the
// transactions that contain the generalized subtree (found through a
// postings index) instead of re-scanning the whole dataset per round.
func Apriori(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	if err := opts.validateHierarchy(ds); err != nil {
		return nil, err
	}
	cut := hierarchy.NewLeafCut(opts.ItemHierarchy)
	sw.Mark("setup")
	gens, err := aprioriOnCut(opts.Ctx, ds, nil, cut, opts.K, opts.M, nil)
	if err != nil {
		return nil, err
	}
	sw.Mark("generalize")
	anon, err := generalize.ApplyItemCut(ds, cut)
	if err != nil {
		return nil, err
	}
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases(), Cut: cut, Generalizations: gens}, nil
}

// aprioriOnCut runs the AA repair loop over the records at indices idx (all
// when nil), mutating cut in place: repairs made before an error stay on
// it, so VPA's verification pass starts from an infeasible part's partial
// repairs. When allowed is non-nil, only items whose cut node's leaves
// are all inside allowed may be generalized (VPA restricts repairs to one
// vertical part). ctx (nil-able) is polled each repair round and inside
// the scans, so a cancelled run stops within one round. Returns the
// number of generalizations.
func aprioriOnCut(ctx context.Context, ds *dataset.Dataset, idx []int, cut *hierarchy.Cut, k, m int, allowed map[string]bool) (int, error) {
	st, err := newAprioriState(ds, idx, cut, allowed)
	if err != nil {
		return 0, err
	}
	gens := 0
	// NCP deltas are compared through the exact float operations of
	// Cut.NCP, so the repair choice (and with it the whole run) matches
	// the string path bit for bit.
	total := st.ix.NumLeaves()
	denom := float64(total-1) * float64(total)
	for size := 1; size <= m; size++ {
		if err := st.buildCounts(ctx, size); err != nil {
			return gens, err
		}
		obs.FromCtx(ctx).Event("apriori_round",
			obs.Int("size", size), obs.Int("generalizations", gens))
		for {
			if err := ctxErr(ctx); err != nil {
				return gens, err
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
			for _, id := range viol.ids {
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
				return gens, fmt.Errorf("apriori: cannot repair violation %v (k=%d, m=%d): all items fully generalized", viol.names, k, m)
			}
			if err := st.repair(ctx, bestID); err != nil {
				return gens, err
			}
			gens++
		}
	}
	return gens, nil
}

// aprioriState is the interned working set of one repair run: mapped
// transactions as sorted node-ID lists, a postings index from node ID to
// the transactions containing it, and the support counts of the current
// subset size.
type aprioriState struct {
	ix  *hierarchy.Index
	cut *hierarchy.Cut
	txs [][]int32
	// postings[id] lists the indices of transactions whose mapped items
	// include id; kept exact across repairs so a repair visits only the
	// transactions that actually contain the generalized subtree.
	postings map[int32][]int
	// allowedPrefix, when non-nil, holds prefix sums of the allowed-leaf
	// indicator over leaf ordinals (VPA's vertical restriction):
	// a subtree is movable iff its leaf range is all-allowed.
	allowedPrefix []int32

	// Support counts of the current size, densest representation first:
	// an array over node IDs for single items, packed uint64 pairs, byte
	// tuples beyond. buf is the reusable packed-key scratch.
	size   int
	single []int32
	pairs  map[uint64]int32
	packed map[string]*int32
	buf    []byte

	// candIDs/bestIDs are minViolation's reusable comparison buffers: the
	// scan keeps only the name-wise smallest violating itemset, so per-
	// candidate name slices and sort.Sort boxing would be pure garbage.
	candIDs []int32
	bestIDs []int32
}

func newAprioriState(ds *dataset.Dataset, idx []int, cut *hierarchy.Cut, allowed map[string]bool) (*aprioriState, error) {
	ix := cut.Index()
	st := &aprioriState{ix: ix, cut: cut, postings: make(map[int32][]int)}
	if allowed != nil {
		st.allowedPrefix = make([]int32, ix.NumLeaves()+1)
		for o := int32(0); o < int32(ix.NumLeaves()); o++ {
			st.allowedPrefix[o+1] = st.allowedPrefix[o]
			if allowed[ix.Value(ix.LeafID(o))] {
				st.allowedPrefix[o+1]++
			}
		}
	}
	mapOne := func(r int) error {
		items := ds.Records[r].Items
		var tx []int32
		for _, it := range items {
			if allowed != nil && !allowed[it] {
				continue
			}
			id, err := ix.MustID(it)
			if err != nil {
				return err
			}
			tx = append(tx, st.cut.MapID(id))
		}
		if tx == nil {
			st.txs = append(st.txs, nil)
			return nil
		}
		sort.Slice(tx, func(a, b int) bool { return tx[a] < tx[b] })
		tx = dedupIDs(tx)
		st.txs = append(st.txs, tx)
		return nil
	}
	if idx == nil {
		for r := range ds.Records {
			if err := mapOne(r); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range idx {
			if err := mapOne(r); err != nil {
				return nil, err
			}
		}
	}
	for t, tx := range st.txs {
		for _, id := range tx {
			st.postings[id] = append(st.postings[id], t)
		}
	}
	return st, nil
}

// dedupIDs removes adjacent duplicates from an ascending slice in place.
func dedupIDs(ids []int32) []int32 {
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
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
	st.single, st.pairs, st.packed = nil, nil, nil
	switch {
	case size == 1:
		st.single = make([]int32, st.ix.Len())
	case size == 2:
		st.pairs = make(map[uint64]int32)
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

// count adds d (+1 or -1) to the support of every size-subset of tx.
//
// This mirrors supportCounts.add, internal/privacy's scan-only itemset
// counter, with two deliberate differences that keep them separate
// implementations: counts here are adjustable (removal must delete zeroed
// entries so violation scans stay tight) and IDs are hierarchy node IDs
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
		for i := 0; i < len(tx); i++ {
			hi := uint64(uint32(tx[i])) << 32
			for j := i + 1; j < len(tx); j++ {
				key := hi | uint64(uint32(tx[j]))
				if v := st.pairs[key] + d; v == 0 {
					delete(st.pairs, key)
				} else {
					st.pairs[key] = v
				}
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

// violation is one under-supported itemset: ids sorted by item name (the
// order the repair loop tries candidates in), names in the same order.
type violation struct {
	ids     []int32
	names   []string
	support int32
}

// minViolation returns the violating itemset that is smallest in
// item-name order — exactly the first violation the seed's sorted scan
// repaired — or nil when the level is clean. The scan itself is
// allocation-free: candidate IDs go through reusable buffers, names are
// resolved lazily for comparisons, and the violation struct (with its
// names) is built once for the winner.
func (st *aprioriState) minViolation(k int) *violation {
	if cap(st.candIDs) < st.size {
		st.candIDs = make([]int32, st.size)
		st.bestIDs = make([]int32, st.size)
	}
	cand := st.candIDs[:st.size]
	best := st.bestIDs[:st.size]
	haveBest := false
	var bestSupport int32
	// consider sorts cand by item name (hierarchy values are distinct, so
	// the order matches the seed's sort.Sort) and keeps it iff it is
	// strictly name-less than the running best — the seed's tie-break.
	consider := func(support int32) {
		for i := 1; i < len(cand); i++ {
			for j := i; j > 0 && st.ix.Value(cand[j]) < st.ix.Value(cand[j-1]); j-- {
				cand[j], cand[j-1] = cand[j-1], cand[j]
			}
		}
		if !haveBest || lessIDNames(st.ix, cand, best) {
			copy(best, cand)
			bestSupport = support
			haveBest = true
		}
	}
	switch st.size {
	case 1:
		for id, s := range st.single {
			if s > 0 && s < int32(k) {
				cand[0] = int32(id)
				consider(s)
			}
		}
	case 2:
		for key, s := range st.pairs {
			if s < int32(k) {
				cand[0], cand[1] = int32(uint32(key>>32)), int32(uint32(key))
				consider(s)
			}
		}
	default:
		for key, p := range st.packed {
			if *p < int32(k) {
				for i := range cand {
					cand[i] = int32(uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3]))
				}
				consider(*p)
			}
		}
	}
	if !haveBest {
		return nil
	}
	ids := append([]int32(nil), best...)
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = st.ix.Value(id)
	}
	return &violation{ids: ids, names: names, support: bestSupport}
}

// lessIDNames compares equal-length, name-sorted ID tuples by their item
// names lexicographically.
func lessIDNames(ix *hierarchy.Index, a, b []int32) bool {
	for i := range a {
		av, bv := ix.Value(a[i]), ix.Value(b[i])
		if av != bv {
			return av < bv
		}
	}
	return false
}

// repair generalizes the cut node of id to its parent and refreshes the
// state incrementally: only the transactions whose mapped items intersect
// the parent's subtree (per the postings index) are re-counted (at the
// current st.size) and re-mapped; every other transaction's subsets are
// untouched.
func (st *aprioriState) repair(ctx context.Context, id int32) error {
	p := st.ix.Parent(id)
	end := p + st.ix.SubtreeSize(p)
	// Union the postings of every node in the subtree's ID range.
	var affected []int
	seen := make(map[int]bool)
	for j := p; j < end; j++ {
		for _, t := range st.postings[j] {
			if !seen[t] {
				seen[t] = true
				affected = append(affected, t)
			}
		}
	}
	sort.Ints(affected)
	if err := st.cut.GeneralizeID(id); err != nil {
		return err
	}
	for n, t := range affected {
		if n%cancelStride == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		old := st.txs[t]
		st.count(old, -1)
		// In-range IDs form one contiguous run of the ascending list;
		// collapsing the run to p keeps the list sorted and deduplicated.
		tx := old[:0]
		placed := false
		for _, v := range old {
			if v >= p && v < end {
				if !placed {
					tx = append(tx, p)
					placed = true
				}
				continue
			}
			tx = append(tx, v)
		}
		st.txs[t] = tx
		st.count(tx, 1)
	}
	for j := p; j < end; j++ {
		delete(st.postings, j)
	}
	st.postings[p] = affected
	return nil
}

// ctxErr returns ctx's error, treating nil as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
