// Package policy implements the privacy and utility policies of
// constraint-based transaction anonymization (COAT, Loukides et al. KAIS
// 2011; PCTA, Gkoulalas-Divanis & Loukides TDP 2012), together with the
// automatic generation strategies SECRETA's Policy Specification Module
// offers. A privacy constraint is an itemset whose support must be at
// least k (or zero, after protection); a utility constraint is the maximal
// group of items that may be generalized together.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
)

// PrivacyConstraint is an itemset that must be protected: after
// anonymization its support must be >= k or 0.
type PrivacyConstraint struct {
	Items []string
}

func (p PrivacyConstraint) String() string { return strings.Join(p.Items, " ") }

// UtilityConstraint is a labeled maximal generalization group: items inside
// the same constraint may be merged into one generalized item; items from
// different constraints may not.
type UtilityConstraint struct {
	Label string
	Items []string
}

func (u UtilityConstraint) String() string {
	return u.Label + ": " + strings.Join(u.Items, " ")
}

// Policy bundles the privacy and utility constraints given to COAT/PCTA.
type Policy struct {
	Privacy []PrivacyConstraint
	Utility []UtilityConstraint
}

// UtilityIndex maps each item to the index of its utility constraint;
// items outside every constraint are absent (they can only be kept intact
// or suppressed).
func (p *Policy) UtilityIndex() map[string]int {
	idx := make(map[string]int)
	for i, u := range p.Utility {
		for _, it := range u.Items {
			idx[it] = i
		}
	}
	return idx
}

// Validate checks that privacy constraints are non-empty, sorted and
// duplicate-free, and that no item belongs to two utility constraints.
func (p *Policy) Validate() error {
	for i, pc := range p.Privacy {
		if len(pc.Items) == 0 {
			return fmt.Errorf("policy: privacy constraint %d is empty", i)
		}
		if !sort.StringsAreSorted(pc.Items) {
			return fmt.Errorf("policy: privacy constraint %d is not sorted", i)
		}
		for j := 1; j < len(pc.Items); j++ {
			if pc.Items[j] == pc.Items[j-1] {
				return fmt.Errorf("policy: privacy constraint %d has duplicate item %q", i, pc.Items[j])
			}
		}
	}
	seen := make(map[string]string)
	labels := make(map[string]bool)
	for _, u := range p.Utility {
		if u.Label == "" {
			return fmt.Errorf("policy: utility constraint with empty label")
		}
		if labels[u.Label] {
			return fmt.Errorf("policy: duplicate utility label %q", u.Label)
		}
		labels[u.Label] = true
		if len(u.Items) == 0 {
			return fmt.Errorf("policy: utility constraint %q is empty", u.Label)
		}
		for _, it := range u.Items {
			if prev, dup := seen[it]; dup {
				return fmt.Errorf("policy: item %q in utility constraints %q and %q", it, prev, u.Label)
			}
			seen[it] = u.Label
		}
	}
	return nil
}

// normalize sorts and deduplicates an itemset.
func normalize(items []string) []string {
	out := append([]string(nil), items...)
	sort.Strings(out)
	w := 0
	for i, it := range out {
		if it == "" || (i > 0 && out[i-1] == it) {
			continue
		}
		out[w] = it
		w++
	}
	return out[:w]
}

// --- Generation strategies (Policy Specification Module) ---

// PrivacyAllItems protects every single item: one constraint per item in
// the dataset's item domain — the strictest of COAT's strategies.
func PrivacyAllItems(ds *dataset.Dataset) []PrivacyConstraint {
	dom := ds.ItemDomain()
	out := make([]PrivacyConstraint, len(dom))
	for i, it := range dom {
		out[i] = PrivacyConstraint{Items: []string{it}}
	}
	return out
}

// PrivacyFrequent protects every itemset of size 1..maxSize whose support
// is at least minSupport — modeling an attacker who knows combinations
// that actually occur.
func PrivacyFrequent(ds *dataset.Dataset, minSupport, maxSize int) []PrivacyConstraint {
	sets := privacy.FrequentItemsets(privacy.Transactions(ds, nil), max(minSupport, 1), max(maxSize, 1))
	out := make([]PrivacyConstraint, len(sets))
	for i, items := range sets {
		out[i] = PrivacyConstraint{Items: items}
	}
	return out
}

// UtilityFromHierarchy derives utility constraints from an item hierarchy:
// each node at the given depth (from the root) becomes one constraint
// containing its leaves. Depth 0 yields a single all-items constraint; the
// deeper the level, the stricter the policy.
func UtilityFromHierarchy(h *hierarchy.Hierarchy, depth int) []UtilityConstraint {
	var out []UtilityConstraint
	var walk func(n *hierarchy.Node)
	walk = func(n *hierarchy.Node) {
		if n.Depth() == depth || n.IsLeaf() {
			out = append(out, UtilityConstraint{Label: n.Value, Items: normalize(n.Leaves())})
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(h.Root)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// UtilityTop allows any generalization: one constraint covering the whole
// item domain — the most permissive policy.
func UtilityTop(ds *dataset.Dataset) []UtilityConstraint {
	dom := ds.ItemDomain()
	if len(dom) == 0 {
		return nil
	}
	return []UtilityConstraint{{Label: "ALL", Items: dom}}
}

// UtilitySingletons forbids all generalization: each item alone. Under
// this policy COAT can only keep or suppress items.
func UtilitySingletons(ds *dataset.Dataset) []UtilityConstraint {
	dom := ds.ItemDomain()
	out := make([]UtilityConstraint, len(dom))
	for i, it := range dom {
		out[i] = UtilityConstraint{Label: it, Items: []string{it}}
	}
	return out
}
