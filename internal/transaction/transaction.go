// Package transaction implements the five transaction (set-valued)
// anonymization algorithms SECRETA integrates: Apriori, LRA and VPA
// (Terrovitis et al., VLDB J. 2011), which enforce k^m-anonymity through an
// item generalization hierarchy, and COAT (Loukides et al., KAIS 2011) and
// PCTA (Gkoulalas-Divanis & Loukides, TDP 2012), which are hierarchy-free
// and enforce privacy policies under utility constraints via item merging
// and suppression.
package transaction

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/timing"
)

// Options configures a transaction algorithm run.
type Options struct {
	// Ctx, when non-nil, is polled inside the algorithm's repair loops
	// (Apriori rounds, COAT/PCTA merge steps, rho suppression rounds);
	// once cancelled the run aborts promptly with the context's error.
	// Nil means the run cannot be cancelled.
	Ctx context.Context
	// K is the anonymity parameter.
	K int
	// M is the maximum adversary itemset size for k^m-anonymity
	// (hierarchy-based algorithms).
	M int
	// ItemHierarchy drives Apriori, LRA and VPA, which only read it: a
	// server shares one across every job over a dataset.
	ItemHierarchy *hierarchy.Hierarchy
	// Policy drives COAT and PCTA. COAT requires utility constraints;
	// both require privacy constraints.
	Policy *policy.Policy
	// Partitions is the number of horizontal parts for LRA (default 4)
	// and the grouping factor for VPA's vertical parts (default: one part
	// per child of the hierarchy root).
	Partitions int
	// Rho is the confidence bound of RhoUncertainty, in (0,1).
	Rho float64
	// Sensitive lists the sensitive items of RhoUncertainty.
	Sensitive []string
}

// Result is the outcome of a transaction algorithm run.
type Result struct {
	// Items holds the published baskets, record-aligned with the input:
	// ascending IDs over ItemDict, nil for an empty basket. ItemDict
	// holds exactly the published values, rank-built, so the pair
	// follows dataset.Indexed's item invariants; the relational values
	// are untouched, and (*dataset.Indexed).WithItems joins the baskets
	// onto the input's interning.
	Items    [][]uint32
	ItemDict *dataset.Interner
	// Phases is the timing breakdown.
	Phases []timing.Phase
	// Cut is the final hierarchy cut (hierarchy-based algorithms).
	Cut *hierarchy.Cut
	// Mapping is the item -> label translation (mapping-based
	// algorithms); the empty label means the item was suppressed.
	Mapping map[string]string
	// Suppressed lists suppressed items.
	Suppressed []string
	// Generalizations counts generalization operations performed.
	Generalizations int
}

// resolveItems validates the options of the hierarchy algorithms and
// resolves the records' items to node IDs of the item hierarchy.
func (o *Options) resolveItems(ds *dataset.Dataset) ([][]int32, error) {
	if o.K < 1 {
		return nil, fmt.Errorf("transaction: k must be >= 1, got %d", o.K)
	}
	if o.M < 1 {
		return nil, fmt.Errorf("transaction: m must be >= 1, got %d", o.M)
	}
	if !ds.HasTransaction() {
		return nil, fmt.Errorf("transaction: dataset has no transaction attribute")
	}
	if o.ItemHierarchy == nil {
		return nil, fmt.Errorf("transaction: item hierarchy required")
	}
	return itemIDs(ds, o.ItemHierarchy.Index())
}

// itemIDs resolves every record's items to node IDs of ix in one pass
// over the records: the only place a hierarchy run turns item strings
// into IDs. Each record's IDs come back ascending and deduplicated, all
// in one backing array. A hierarchy that misses items is rejected naming
// the smallest missing one.
func itemIDs(ds *dataset.Dataset, ix *hierarchy.Index) ([][]int32, error) {
	total := 0
	for r := range ds.Records {
		total += len(ds.Records[r].Items)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(ds.Records))
	missing, anyMissing := "", false
	for r := range ds.Records {
		start := len(flat)
		for _, it := range ds.Records[r].Items {
			id, ok := ix.ID(it)
			if !ok {
				if !anyMissing || it < missing {
					missing, anyMissing = it, true
				}
				continue
			}
			flat = append(flat, id)
		}
		if ids := flat[start:]; len(ids) > 0 {
			slices.Sort(ids)
			ids = slices.Compact(ids)
			flat = flat[:start+len(ids)]
			out[r] = ids[:len(ids):len(ids)]
		}
	}
	if anyMissing {
		return nil, fmt.Errorf("transaction: item hierarchy misses item %q", missing)
	}
	return out, nil
}

func (o *Options) validatePolicy(ds *dataset.Dataset, needUtility bool) error {
	if o.K < 1 {
		return fmt.Errorf("transaction: k must be >= 1, got %d", o.K)
	}
	if !ds.HasTransaction() {
		return fmt.Errorf("transaction: dataset has no transaction attribute")
	}
	if o.Policy == nil || len(o.Policy.Privacy) == 0 {
		return fmt.Errorf("transaction: privacy policy required")
	}
	if needUtility && len(o.Policy.Utility) == 0 {
		return fmt.Errorf("transaction: utility policy required")
	}
	return o.Policy.Validate()
}

// interrupted returns the options context's error, nil when no context
// was supplied. Algorithms poll it at the top of their repair loops so
// cancellation takes effect mid-run with bounded delay.
func (o *Options) interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// labelFor builds a deterministic label for a merged item group.
func labelFor(items []string) string {
	if len(items) == 1 {
		return items[0]
	}
	return "(" + strings.Join(items, ",") + ")"
}

// groupTable tracks the item -> group mapping of COAT/PCTA on dense IDs:
// every domain item gets a fixed rank, the rank -> group table is a flat
// array, and liveness is a bitmap — so the published-set rebuilds that
// dominate both algorithms do integer reads instead of map walks.
type groupTable struct {
	rank      map[string]int // item -> fixed domain rank
	itemGroup []int32        // rank -> current group index
	items     [][]string     // group index -> sorted member items
	dead      []bool         // suppressed groups
}

func newGroupTable(domain []string) *groupTable {
	g := &groupTable{
		rank:      make(map[string]int, len(domain)),
		itemGroup: make([]int32, len(domain)),
		dead:      make([]bool, len(domain)),
	}
	for i, it := range domain {
		g.rank[it] = i
		g.itemGroup[i] = int32(i)
		g.items = append(g.items, []string{it})
	}
	return g
}

// gid returns the current group of a domain item (false for items outside
// the domain, e.g. policy constraints referencing unseen items).
func (g *groupTable) gid(item string) (int32, bool) {
	r, ok := g.rank[item]
	if !ok {
		return 0, false
	}
	return g.itemGroup[r], true
}

// merge joins the groups of items a and b, returning the surviving group
// index. Merging a group with itself is a no-op.
func (g *groupTable) merge(a, b string) int32 {
	ga, _ := g.gid(a)
	gb, _ := g.gid(b)
	if ga == gb {
		return ga
	}
	if len(g.items[gb]) > len(g.items[ga]) {
		ga, gb = gb, ga
	}
	merged := append(g.items[ga], g.items[gb]...)
	sort.Strings(merged)
	g.items[ga] = merged
	for _, it := range g.items[gb] {
		g.itemGroup[g.rank[it]] = ga
	}
	g.items[gb] = nil
	return ga
}

// suppress kills the group containing item (no-op for unknown items).
func (g *groupTable) suppress(item string) {
	if gi, ok := g.gid(item); ok {
		g.dead[gi] = true
	}
}

// size returns the member count of item's group.
func (g *groupTable) size(item string) int {
	gi, _ := g.gid(item)
	return len(g.items[gi])
}

// label returns the published label for an item ("" when suppressed).
func (g *groupTable) label(item string) string {
	gi, ok := g.gid(item)
	if !ok {
		return item
	}
	if g.dead[gi] {
		return ""
	}
	return labelFor(g.items[gi])
}

// mapping materializes the item -> label table.
func (g *groupTable) mapping() map[string]string {
	out := make(map[string]string, len(g.rank))
	for it := range g.rank {
		out[it] = g.label(it)
	}
	return out
}

// suppressed lists all suppressed items, sorted.
func (g *groupTable) suppressed() []string {
	var out []string
	for it, r := range g.rank {
		if g.dead[g.itemGroup[r]] {
			out = append(out, it)
		}
	}
	sort.Strings(out)
	return out
}

// publishLabels publishes record-aligned baskets of source IDs below n
// (hierarchy node IDs, or domain ranks) under label, "" marking an ID
// that publishes nothing. Each distinct source ID is labelled and
// looked up in the dictionary once, never once per occurrence; the
// dictionary holds exactly the published labels, ranked, so equal labels
// share an ID. Baskets are remapped, sorted and deduplicated on IDs and
// share one backing array; an empty one is nil.
func publishLabels(txs [][]int32, n int, label func(int32) string) ([][]uint32, *dataset.Interner) {
	id := make([]int32, n) // source ID -> 1 + dictionary ID; -1 once seen
	vals := make([]string, 0, n)
	total := 0
	for _, tx := range txs {
		total += len(tx)
		for _, s := range tx {
			if id[s] == 0 {
				id[s] = -1
				if l := label(s); l != "" {
					vals = append(vals, l)
				}
			}
		}
	}
	sort.Strings(vals)
	dict := dataset.NewRankedInterner(slices.Compact(vals))
	for s, v := range id {
		if v != 0 {
			if d, ok := dict.ID(label(int32(s))); ok {
				id[s] = int32(d) + 1
			}
		}
	}
	flat := make([]uint32, 0, total)
	out := make([][]uint32, len(txs))
	for r, tx := range txs {
		start := len(flat)
		for _, s := range tx {
			if v := id[s]; v > 0 {
				flat = append(flat, uint32(v-1))
			}
		}
		if basket := flat[start:]; len(basket) > 0 {
			slices.Sort(basket)
			basket = slices.Compact(basket)
			flat = flat[:start+len(basket)]
			out[r] = basket[:len(basket):len(basket)]
		}
	}
	return out, dict
}

// publish publishes the baskets recRanks holds (domain ranks, see
// recordRanks) under the current grouping: each live group publishes its
// label, built once, and a suppressed one nothing.
func (g *groupTable) publish(recRanks [][]int32) ([][]uint32, *dataset.Interner) {
	labels := make([]string, len(g.items))
	for gi, members := range g.items {
		if len(members) > 0 && !g.dead[gi] {
			labels[gi] = labelFor(members)
		}
	}
	return publishLabels(recRanks, len(g.rank), func(rank int32) string { return labels[g.itemGroup[rank]] })
}

// recordRanks resolves every record's items to domain ranks once; the
// per-step published rebuilds then never touch a map.
func recordRanks(ds *dataset.Dataset, g *groupTable) [][]int32 {
	out := make([][]int32, len(ds.Records))
	for r := range ds.Records {
		items := ds.Records[r].Items
		if len(items) == 0 {
			continue
		}
		ranks := make([]int32, len(items))
		for i, it := range items {
			ranks[i] = int32(g.rank[it])
		}
		out[r] = ranks
	}
	return out
}

// publishedGroups computes, per record, the sorted set of live group IDs
// its items publish under the current grouping — the dense counterpart of
// the old per-record label-set maps. Distinct live groups have distinct
// labels, so group-ID sets and label sets are interchangeable.
func publishedGroups(recRanks [][]int32, g *groupTable) [][]int32 {
	out := make([][]int32, len(recRanks))
	for r, ranks := range recRanks {
		if len(ranks) == 0 {
			continue
		}
		set := make([]int32, 0, len(ranks))
		for _, rank := range ranks {
			gi := g.itemGroup[rank]
			if !g.dead[gi] {
				set = append(set, gi)
			}
		}
		if len(set) == 0 {
			continue
		}
		slices.Sort(set)
		out[r] = slices.Compact(set)
	}
	return out
}

// gidSupport counts transactions whose published set contains the group.
func gidSupport(published [][]int32, gid int32) int {
	n := 0
	for _, set := range published {
		for _, v := range set {
			if v == gid {
				n++
				break
			}
			if v > gid {
				break
			}
		}
	}
	return n
}

// constraintSupport counts transactions whose published item set contains
// the published image of every item of the constraint. A constraint with a
// suppressed item has no queryable image: it is reported as satisfied
// (support 0 is allowed by the "support >= k or 0" semantics). Items
// outside the domain publish nowhere, so their constraints have support 0.
func constraintSupport(published [][]int32, g *groupTable, c policy.PrivacyConstraint) (int, bool) {
	gids := make([]int32, 0, len(c.Items))
	for _, it := range c.Items {
		gi, ok := g.gid(it)
		if !ok {
			return 0, false
		}
		if g.dead[gi] {
			return 0, true // suppressed: unqueryable, trivially protected
		}
		gids = append(gids, gi)
	}
	slices.Sort(gids)
	gids = slices.Compact(gids)
	sup := 0
	for _, set := range published {
		if containsAll(set, gids) {
			sup++
		}
	}
	return sup, false
}

// containsAll reports whether the ascending set contains every element of
// the ascending needle slice.
func containsAll(set, needles []int32) bool {
	i := 0
	for _, n := range needles {
		for i < len(set) && set[i] < n {
			i++
		}
		if i >= len(set) || set[i] != n {
			return false
		}
		i++
	}
	return true
}
