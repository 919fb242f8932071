package transaction

import (
	"secreta/internal/dataset"
	"secreta/internal/generalize"
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
	if err := opts.validateHierarchy(ds); err != nil {
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

	cut := hierarchy.NewLeafCut(h)
	gens := 0
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		allowed := make(map[string]bool)
		for _, sub := range bucket {
			for _, leaf := range sub.Leaves() {
				allowed[leaf] = true
			}
		}
		g, err := aprioriOnCut(opts.Ctx, ds, nil, cut, opts.K, opts.M, allowed)
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
	g, err := aprioriOnCut(opts.Ctx, ds, nil, cut, opts.K, opts.M, nil)
	if err != nil {
		return nil, err
	}
	gens += g
	sw.Mark("verify")

	anon, err := generalize.ApplyItemCut(ds, cut)
	if err != nil {
		return nil, err
	}
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases(), Cut: cut, Generalizations: gens}, nil
}
