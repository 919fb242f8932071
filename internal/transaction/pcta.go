package transaction

import (
	"secreta/internal/dataset"
	"secreta/internal/timing"
)

// PCTA implements Privacy-Constrained Clustering-based Transaction
// Anonymization (Gkoulalas-Divanis & Loukides, TDP 2012). Like COAT it
// protects privacy constraints by merging items into indistinguishable
// groups, but it treats generalization as agglomerative clustering over the
// whole item domain: at each step it takes the most violated constraint
// (lowest positive support below k) and performs the globally cheapest
// merge between one of the constraint's groups and any other live group,
// where cost is the UL-style exponential penalty of the merged group
// weighted by its published support. When a utility policy is supplied it
// bounds the clustering exactly as in COAT; without one, any items may
// cluster together, and suppression is used only when a constraint cannot
// be protected otherwise.
func PCTA(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	if err := opts.validatePolicy(ds, false); err != nil {
		return nil, err
	}
	domain := ds.ItemDomain()
	groups := newGroupTable(domain)
	recRanks := recordRanks(ds, groups)
	uidx := opts.Policy.UtilityIndex()
	hasUtility := len(opts.Policy.Utility) > 0
	sw.Mark("setup")

	gens := 0
	for {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		published := publishedGroups(recRanks, groups)
		// Find the most violated constraint.
		worst := -1
		worstSup := 0
		for ci := range opts.Policy.Privacy {
			sup, protected := constraintSupport(published, groups, opts.Policy.Privacy[ci])
			if protected || sup == 0 || sup >= opts.K {
				continue
			}
			if worst < 0 || sup < worstSup {
				worst, worstSup = ci, sup
			}
		}
		if worst < 0 {
			break
		}
		c := opts.Policy.Privacy[worst]
		// Cheapest merge: any group of a constraint item with any other
		// live group (respecting utility bounds when present).
		bestA, bestB := "", ""
		bestCost := 0.0
		for _, it := range c.Items {
			igid, ok := groups.gid(it)
			if !ok || groups.dead[igid] {
				continue
			}
			var candidates []string
			if hasUtility {
				ui, ok := uidx[it]
				if !ok {
					continue
				}
				candidates = opts.Policy.Utility[ui].Items
			} else {
				candidates = domain
			}
			isize := groups.size(it)
			for _, cand := range candidates {
				cgid, ok := groups.gid(cand)
				if !ok || cgid == igid || groups.dead[cgid] {
					continue
				}
				msize := isize + groups.size(cand)
				cost := pow2f(msize) * float64(gidSupport(published, cgid))
				if bestA == "" || cost < bestCost {
					bestA, bestB, bestCost = it, cand, cost
				}
			}
		}
		if bestA == "" {
			// No merge can help: suppress the rarest queryable item of
			// the constraint.
			victim := ""
			victimSup := -1
			for _, it := range c.Items {
				gi, ok := groups.gid(it)
				if !ok || groups.dead[gi] {
					continue
				}
				s := gidSupport(published, gi)
				if victim == "" || s < victimSup {
					victim, victimSup = it, s
				}
			}
			if victim == "" {
				break
			}
			groups.suppress(victim)
			continue
		}
		groups.merge(bestA, bestB)
		gens++
	}
	sw.Mark("cluster")

	items, dict := groups.publish(recRanks)
	sw.Mark("recode")
	return &Result{
		Items:           items,
		ItemDict:        dict,
		Phases:          sw.Phases(),
		Mapping:         groups.mapping(),
		Suppressed:      groups.suppressed(),
		Generalizations: gens,
	}, nil
}
