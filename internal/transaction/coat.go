package transaction

import (
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/policy"
	"secreta/internal/timing"
)

// COAT implements COnstraint-based Anonymization of Transactions (Loukides
// et al., KAIS 2011). Each privacy constraint — an itemset an attacker may
// know — must end up with support >= k or become unqueryable. COAT
// processes violated constraints greedily: it picks the constraint item
// whose current group has the lowest support and merges its group with the
// cheapest partner group, where partners are restricted to the item's
// utility constraint (the maximal set of items the publisher allows to be
// indistinguishable). When a group has swallowed its whole utility
// constraint and the privacy constraint is still violated, the group is
// suppressed — utility constraints are never traded away for privacy.
func COAT(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	if err := opts.validatePolicy(ds, true); err != nil {
		return nil, err
	}
	domain := ds.ItemDomain()
	groups := newGroupTable(domain)
	recRanks := recordRanks(ds, groups)
	uidx := opts.Policy.UtilityIndex()
	sw.Mark("setup")

	gens := 0
	for ci := range opts.Policy.Privacy {
		c := opts.Policy.Privacy[ci]
		for {
			// Each protection step rebuilds the published sets (O(dataset));
			// polling here bounds cancellation delay to one step.
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
			published := publishedGroups(recRanks, groups)
			sup, protected := constraintSupport(published, groups, c)
			if protected || sup == 0 || sup >= opts.K {
				break
			}
			// Pick the constraint item whose group's published image has
			// the lowest support: the cheapest lever to raise the
			// constraint's support.
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
				break // everything suppressed already
			}
			// Candidate partners: items of the victim's utility
			// constraint not yet in the victim's group.
			ui, constrained := uidx[victim]
			if !constrained {
				// No utility constraint covers this item: COAT may only
				// suppress it.
				groups.suppress(victim)
				continue
			}
			partner := ""
			bestCost := 0.0
			vgid, _ := groups.gid(victim)
			vsize := groups.size(victim)
			for _, cand := range opts.Policy.Utility[ui].Items {
				cgid, ok := groups.gid(cand)
				if !ok || cgid == vgid || groups.dead[cgid] {
					continue
				}
				// UL-style cost: exponential in the merged group size,
				// weighted by the partner group's support (merging a
				// popular group dilutes more occurrences).
				msize := vsize + groups.size(cand)
				cost := pow2f(msize) * float64(gidSupport(published, cgid))
				if partner == "" || cost < bestCost {
					partner, bestCost = cand, cost
				}
			}
			if partner == "" {
				// Utility constraint exhausted: suppress.
				groups.suppress(victim)
				continue
			}
			groups.merge(victim, partner)
			gens++
		}
	}
	sw.Mark("protect")

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

func pow2f(k int) float64 {
	if k > 60 {
		k = 60
	}
	return float64(uint64(1)<<uint(k) - 1)
}

// PolicySatisfied verifies that every privacy constraint is protected under
// the mapping: its published image contains a suppressed item (unqueryable)
// or has support >= k or exactly 0 in the anonymized data. It returns the
// first violated constraint's rendering when the check fails.
func PolicySatisfied(orig *dataset.Dataset, mapping map[string]string, constraints []policy.PrivacyConstraint, k int) (bool, string) {
	published := make([]map[string]bool, len(orig.Records))
	for r := range orig.Records {
		set := make(map[string]bool)
		for _, it := range orig.Records[r].Items {
			l, ok := mapping[it]
			if !ok {
				l = it
			}
			if l != "" {
				set[l] = true
			}
		}
		published[r] = set
	}
	for _, c := range constraints {
		labels := make(map[string]bool, len(c.Items))
		suppressed := false
		for _, it := range c.Items {
			l, ok := mapping[it]
			if !ok {
				l = it
			}
			if l == "" {
				suppressed = true
				break
			}
			labels[l] = true
		}
		if suppressed {
			continue
		}
		sup := 0
		for _, tr := range published {
			all := true
			for l := range labels {
				if !tr[l] {
					all = false
					break
				}
			}
			if all {
				sup++
			}
		}
		if sup > 0 && sup < k {
			return false, fmt.Sprintf("constraint {%s} support %d < k=%d", c.String(), sup, k)
		}
	}
	return true, ""
}
