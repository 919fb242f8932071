package transaction

import (
	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/timing"
)

// VPA implements Vertical Partitioning Anonymization (Terrovitis et al.,
// VLDB J. 2011): the item domain is split vertically along the subtrees of
// the hierarchy root (grouped into at most Partitions parts), Apriori runs
// on each part's projection of the transactions, and the per-part cuts are
// merged into one global cut. Because the parts are disjoint subtrees, the
// merged cuts form a valid global cut; a final verification pass repairs
// any cross-part violations with global Apriori steps, so the output is
// k^m-anonymous like the paper's VPA-with-verification variant.
func VPA(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	items, err := opts.resolveItems(ds)
	if err != nil {
		return nil, err
	}
	h := opts.ItemHierarchy
	roots := h.Root.Children
	if len(roots) == 0 {
		// Single-node hierarchy: nothing to partition.
		return Apriori(ds, opts)
	}
	parts := opts.Partitions
	if parts <= 0 || parts > len(roots) {
		parts = len(roots)
	}
	// Group the root's subtrees into `parts` contiguous buckets.
	buckets := make([][]*hierarchy.Node, parts)
	for i, sub := range roots {
		b := i * parts / len(roots)
		buckets[b] = append(buckets[b], sub)
	}
	sw.Mark("partition")

	ix := h.Index()
	cut := hierarchy.NewLeafCut(h)
	gens := 0
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		// The part's items are the leaves of its subtrees, whose preorder
		// IDs are contiguous ranges.
		allowed := make([]bool, ix.Len())
		for _, sub := range bucket {
			id, _ := ix.ID(sub.Value)
			for j := id; j < id+ix.SubtreeSize(id); j++ {
				allowed[j] = ix.Node(j).IsLeaf()
			}
		}
		_, g, err := repairCut(opts.Ctx, items, nil, cut, opts.K, opts.M, allowed, pairTableCap)
		gens += g
		if err != nil {
			// Distinguish "cancelled" from "this part is infeasible": only
			// the latter may be deferred to the verification pass.
			if cerr := opts.interrupted(); cerr != nil {
				return nil, cerr
			}
			// The part cannot be repaired inside its own subtrees (e.g.
			// a whole subtree is rarer than k). Leave it to the global
			// verification pass, which may generalize across parts.
			continue
		}
	}
	sw.Mark("anonymize parts")

	// Verification: repair cross-part violations globally.
	st, g, err := repairCut(opts.Ctx, items, nil, cut, opts.K, opts.M, nil, pairTableCap)
	if err != nil {
		return nil, err
	}
	gens += g
	sw.Mark("verify")

	out, dict := publishLabels(st.txs, ix.Len(), ix.Value)
	sw.Mark("recode")
	return &Result{Items: out, ItemDict: dict, Phases: sw.Phases(), Cut: cut, Generalizations: gens}, nil
}
