package transaction

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
)

// This file preserves the seed's string-path Apriori repair loop verbatim
// and pins that the interned incremental loop is observationally
// identical: same cut, same generalization count, byte-identical
// anonymized output, identical NCP — across generated datasets, the
// hand-written testdata fixture, horizontal parts (LRA's idx subsets) and
// vertical parts (VPA's allowed sets). The reference runs on refCut, the
// map-based cut of the seed, so it shares no cut code with production.

// refCut is the seed's map-based hierarchy cut: the set of on-cut nodes,
// every operation walking node pointers.
type refCut struct {
	h  *hierarchy.Hierarchy
	in map[*hierarchy.Node]bool
}

func newRefLeafCut(h *hierarchy.Hierarchy) *refCut {
	c := &refCut{h: h, in: make(map[*hierarchy.Node]bool)}
	for _, leaf := range h.Leaves() {
		c.in[h.Node(leaf)] = true
	}
	return c
}

func (c *refCut) Clone() *refCut {
	in := make(map[*hierarchy.Node]bool, len(c.in))
	for n := range c.in {
		in[n] = true
	}
	return &refCut{h: c.h, in: in}
}

func (c *refCut) Values() []string {
	var out []string
	for n := range c.in {
		out = append(out, n.Value)
	}
	sort.Strings(out)
	return out
}

func (c *refCut) Map(value string) (string, error) {
	n := c.h.Node(value)
	if n == nil {
		return "", fmt.Errorf("hierarchy %s: unknown value %q", c.h.Attr, value)
	}
	for m := n; m != nil; m = m.Parent {
		if c.in[m] {
			return m.Value, nil
		}
	}
	return n.Value, nil
}

func (c *refCut) Generalize(value string) error {
	n := c.h.Node(value)
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", c.h.Attr, value)
	}
	if !c.in[n] {
		return fmt.Errorf("hierarchy %s: %q is not on the cut", c.h.Attr, value)
	}
	p := n.Parent
	if p == nil {
		return fmt.Errorf("hierarchy %s: cannot generalize the root", c.h.Attr)
	}
	var sweep func(m *hierarchy.Node)
	sweep = func(m *hierarchy.Node) {
		if c.in[m] {
			delete(c.in, m)
			return
		}
		for _, ch := range m.Children {
			sweep(ch)
		}
	}
	sweep(p)
	c.in[p] = true
	return nil
}

func (c *refCut) NCP() float64 {
	total := c.h.Root.LeafCount()
	if total <= 1 {
		return 0
	}
	var sum int64
	for n := range c.in {
		sum += int64(n.LeafCount()-1) * int64(n.LeafCount())
	}
	return float64(sum) / (float64(total-1) * float64(total))
}

// refMapItems is the seed's generalize.MapItems: items recoded through
// a cut (a refCut, or the production one), deduplicated and sorted.
func refMapItems(items []string, cut interface{ Map(string) (string, error) }) ([]string, error) {
	if len(items) == 0 {
		return nil, nil
	}
	seen := make(map[string]struct{}, len(items))
	out := make([]string, 0, len(items))
	for _, it := range items {
		g, err := cut.Map(it)
		if err != nil {
			return nil, err
		}
		if _, dup := seen[g]; dup {
			continue
		}
		seen[g] = struct{}{}
		out = append(out, g)
	}
	sort.Strings(out)
	return out, nil
}

// referenceAprioriOnCut is the seed aprioriOnCut: re-map every
// transaction through the cut and re-scan for violations from scratch,
// every repair round.
func referenceAprioriOnCut(ctx context.Context, ds *dataset.Dataset, idx []int, cut *refCut, h *hierarchy.Hierarchy, k, m int, allowed map[string]bool) (int, error) {
	gens := 0
	for size := 1; size <= m; size++ {
		for {
			mapped, err := refMappedTransactions(ds, idx, cut, allowed)
			if err != nil {
				return gens, err
			}
			viol := refFirstViolationOfSize(mapped, k, size)
			if viol == nil {
				break
			}
			bestItem := ""
			bestCost := 0.0
			baseNCP := cut.NCP()
			for _, g := range viol.Itemset {
				n := h.Node(g)
				if n == nil || n.Parent == nil {
					continue
				}
				if allowed != nil && !refSubtreeAllowed(n.Parent, allowed) {
					continue
				}
				trial := cut.Clone()
				if err := trial.Generalize(g); err != nil {
					continue
				}
				cost := trial.NCP() - baseNCP
				if bestItem == "" || cost < bestCost {
					bestItem, bestCost = g, cost
				}
			}
			if bestItem == "" {
				return gens, fmt.Errorf("apriori: cannot repair violation %v (k=%d, m=%d): all items fully generalized", viol.Itemset, k, m)
			}
			if err := cut.Generalize(bestItem); err != nil {
				return gens, err
			}
			gens++
		}
	}
	return gens, nil
}

func refSubtreeAllowed(n *hierarchy.Node, allowed map[string]bool) bool {
	for _, leaf := range n.Leaves() {
		if !allowed[leaf] {
			return false
		}
	}
	return true
}

func refMappedTransactions(ds *dataset.Dataset, idx []int, cut *refCut, allowed map[string]bool) ([][]string, error) {
	var out [][]string
	mapOne := func(r int) error {
		items := ds.Records[r].Items
		if allowed != nil {
			var kept []string
			for _, it := range items {
				if allowed[it] {
					kept = append(kept, it)
				}
			}
			items = kept
		}
		if len(items) == 0 {
			return nil
		}
		mapped, err := refMapItems(items, cut)
		if err != nil {
			return err
		}
		if len(mapped) > 0 {
			out = append(out, mapped)
		}
		return nil
	}
	if idx == nil {
		for r := range ds.Records {
			if err := mapOne(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, r := range idx {
		if err := mapOne(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refFirstViolationOfSize(transactions [][]string, k, size int) *privacy.Violation {
	for _, v := range privacy.KMViolations(transactions, k, size, 0) {
		if len(v.Itemset) == size {
			return &v
		}
	}
	return nil
}

// runBoth drives the production and reference repair loops from the same
// starting cut and compares everything observable.
func runBoth(t *testing.T, label string, ds *dataset.Dataset, idx []int, h *hierarchy.Hierarchy, k, m int, allowed map[string]bool) {
	t.Helper()
	got := hierarchy.NewLeafCut(h)
	want := newRefLeafCut(h)
	gotGens, gotErr := aprioriOnCut(nil, ds, idx, got, k, m, allowed)
	wantGens, wantErr := referenceAprioriOnCut(nil, ds, idx, want, h, k, m, allowed)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error diverged: got %v, want %v", label, gotErr, wantErr)
	}
	if gotGens != wantGens {
		t.Fatalf("%s: generalizations = %d, want %d", label, gotGens, wantGens)
	}
	if !reflect.DeepEqual(got.Values(), want.Values()) {
		t.Fatalf("%s: cut diverged:\n got %v\nwant %v", label, got.Values(), want.Values())
	}
	if got.NCP() != want.NCP() {
		t.Fatalf("%s: NCP = %v, want %v", label, got.NCP(), want.NCP())
	}
	if gotErr != nil {
		return
	}
	gotAnon, wantAnon := ds.Clone(), ds.Clone()
	for r := range ds.Records {
		var err error
		if gotAnon.Records[r].Items, err = refMapItems(ds.Records[r].Items, got); err != nil {
			t.Fatal(err)
		}
		if wantAnon.Records[r].Items, err = refMapItems(ds.Records[r].Items, want); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(gotAnon, wantAnon) {
		t.Fatalf("%s: anonymized output diverged", label)
	}
}

func TestAprioriMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 5, 11} {
		for _, m := range []int{1, 2, 3} {
			ds := gen.Census(gen.Config{Records: 250, Items: 24, MaxBasket: 6, Seed: seed})
			ih, err := gen.ItemHierarchy(ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4, 8} {
				runBoth(t, fmt.Sprintf("seed=%d k=%d m=%d", seed, k, m), ds, nil, ih, k, m, nil)
			}
		}
	}
}

func TestAprioriMatchesReferenceOnParts(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 300, Items: 30, MaxBasket: 6, Seed: 3})
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Horizontal subset (LRA's partIdx shape).
	idx := make([]int, 0, 150)
	for r := 0; r < 300; r += 2 {
		idx = append(idx, r)
	}
	runBoth(t, "horizontal part", ds, idx, ih, 3, 2, nil)
	// Vertical part (VPA's allowed shape): one subtree of the root.
	for i, sub := range ih.Root.Children {
		allowed := make(map[string]bool)
		for _, leaf := range sub.Leaves() {
			allowed[leaf] = true
		}
		runBoth(t, fmt.Sprintf("vertical part %d", i), ds, nil, ih, 3, 2, allowed)
	}
}

// TestAprioriInfeasiblePartKeepsPartialCut pins the in-place mutation
// contract on the error path: when a vertical part is infeasible, the
// generalizations applied before the failure must survive on the
// caller's cut (VPA continues past infeasible parts and the global
// verification pass starts from that partially-coarsened state).
func TestAprioriInfeasiblePartKeepsPartialCut(t *testing.T) {
	h, err := hierarchy.NewBuilder("items").
		Add("R", "A").Add("R", "B").
		Add("A", "a1").Add("A", "a2").
		Add("B", "b1").Add("B", "b2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(nil, "items")
	baskets := [][]string{{"a1", "b1"}, {"a2", "b1"}, {"b1", "b2"}, {"b1", "b2"}, {"b1", "b2"}}
	for _, items := range baskets {
		if err := ds.AddRecord(dataset.Record{Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	allowed := map[string]bool{"a1": true, "a2": true}
	runBoth(t, "infeasible part", ds, nil, h, 3, 1, allowed)
	// Sanity: the scenario really is the partial-repair-then-fail path.
	cut := hierarchy.NewLeafCut(h)
	gens, err := aprioriOnCut(nil, ds, nil, cut, 3, 1, allowed)
	if err == nil || gens != 1 {
		t.Fatalf("fixture drifted: gens=%d err=%v, want 1 generalization then failure", gens, err)
	}
	if !cut.Contains("A") {
		t.Fatalf("partial generalization lost on error: cut = %v", cut.Values())
	}
}

func TestAprioriMatchesReferenceOnTestdata(t *testing.T) {
	ds, err := dataset.LoadFile(filepath.Join("..", "..", "testdata", "patients.csv"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ih, err := hierarchy.LoadFile("Diagnoses", filepath.Join("..", "..", "testdata", "hierarchies", "Diagnoses.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 4; k++ {
		for m := 1; m <= 3; m++ {
			runBoth(t, fmt.Sprintf("testdata k=%d m=%d", k, m), ds, nil, ih, k, m, nil)
		}
	}
}
