package transaction

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/hierarchy"
)

// aprioriOnCut is the string-keyed entry the equivalence tests drive:
// repairCut at the production pair cap, with ds's items resolved against
// cut's hierarchy and the allowed item names turned into node IDs.
func aprioriOnCut(ctx context.Context, ds *dataset.Dataset, idx []int, cut *hierarchy.Cut, k, m int, allowed map[string]bool) (int, error) {
	_, gens, err := runOnCut(ctx, ds, idx, cut, k, m, allowed, pairTableCap)
	return gens, err
}

// runOnCut is aprioriOnCut at a chosen pair limit, returning the final
// state as well.
func runOnCut(ctx context.Context, ds *dataset.Dataset, idx []int, cut *hierarchy.Cut, k, m int, allowed map[string]bool, pairLimit int) (*aprioriState, int, error) {
	ix := cut.Index()
	items, err := itemIDs(ds, ix)
	if err != nil {
		return nil, 0, err
	}
	var allowedIDs []bool
	if allowed != nil {
		allowedIDs = make([]bool, ix.Len())
		for id := range allowedIDs {
			allowedIDs[id] = allowed[ix.Value(int32(id))]
		}
	}
	return repairCut(ctx, items, idx, cut, k, m, allowedIDs, pairLimit)
}

// published runs the repair loop from the leaf cut at pairLimit and
// returns the cut, the generalization count, the items the run publishes
// for the records at idx (all when nil) and the error, in that order.
func published(t *testing.T, ds *dataset.Dataset, idx []int, h *hierarchy.Hierarchy, k, m int, allowed map[string]bool, pairLimit int) (*hierarchy.Cut, int, [][]string, error) {
	t.Helper()
	cut := hierarchy.NewLeafCut(h)
	st, gens, err := runOnCut(nil, ds, idx, cut, k, m, allowed, pairLimit)
	if err != nil {
		return cut, gens, nil, err
	}
	baskets, dict := publishLabels(st.txs, st.ix.Len(), st.ix.Value)
	items := make([][]string, len(baskets))
	for i, basket := range baskets {
		for _, id := range basket {
			items[i] = append(items[i], dict.Value(id))
		}
	}
	return cut, gens, items, nil
}

// checkMatchesReference runs the production repair loop at pairLimit and
// the preserved seed loop from the leaf cut and compares the error, the
// generalization count, the cut, its NCP and the published items: each
// run record's items (the allowed ones only, for a vertical part) mapped
// through the reference cut.
func checkMatchesReference(t *testing.T, label string, ds *dataset.Dataset, idx []int, h *hierarchy.Hierarchy, k, m int, allowed map[string]bool, pairLimit int) {
	t.Helper()
	cut, gens, items, err := published(t, ds, idx, h, k, m, allowed, pairLimit)
	ref := newRefLeafCut(h)
	wantGens, wantErr := referenceAprioriOnCut(nil, ds, idx, ref, h, k, m, allowed)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error diverged: got %v, want %v", label, err, wantErr)
	}
	if gens != wantGens {
		t.Fatalf("%s: generalizations = %d, want %d", label, gens, wantGens)
	}
	if !reflect.DeepEqual(cut.Values(), ref.Values()) || cut.NCP() != ref.NCP() {
		t.Fatalf("%s: cut diverged:\n got %v (NCP %v)\nwant %v (NCP %v)", label, cut.Values(), cut.NCP(), ref.Values(), ref.NCP())
	}
	if err != nil {
		return
	}
	for i, got := range items {
		r := i
		if idx != nil {
			r = idx[i]
		}
		var in []string
		for _, it := range ds.Records[r].Items {
			if allowed == nil || allowed[it] {
				in = append(in, it)
			}
		}
		want, err := refMapItems(in, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: record %d published %q, want %q", label, r, got, want)
		}
	}
}

// fuzzBaskets turns fuzz bytes into a basket dataset of up to 48 records
// over up to 15 items (baskets of up to 5), an item hierarchy built over
// its domain with fanout 2-4, k in 1..8 and m in 1..3. Every record has a
// distinct relational value, so a permutation of the records is visible
// in the output.
func fuzzBaskets(data []byte) (ds *dataset.Dataset, h *hierarchy.Hierarchy, k, m int) {
	if len(data) < 6 {
		return nil, nil, 0, 0
	}
	k = 1 + int(data[0]%8)
	m = 1 + int(data[1]%3)
	fanout := 2 + int(data[2]%3)
	n := 1 + int(data[3]%48)
	domain := 2 + int(data[4]%14)
	cells := data[5:]
	ds = dataset.New([]dataset.Attribute{{Name: "id"}}, "items")
	c := 0
	next := func() int {
		v := int(cells[c%len(cells)])
		c++
		return v
	}
	for r := 0; r < n; r++ {
		var items []string
		for size := 1 + next()%5; len(items) < size; {
			items = append(items, gen.ItemName(next()%domain))
		}
		if err := ds.AddRecord(dataset.Record{Values: []string{fmt.Sprint(r)}, Items: items}); err != nil {
			panic(err)
		}
	}
	h, err := gen.ItemHierarchy(ds, fanout)
	if err != nil {
		panic(err) // every record has at least one item
	}
	return ds, h, k, m
}

// FuzzAprioriMatchesReference requires the node-ID repair loop to agree
// with the preserved seed loop on arbitrary small basket sets: on all
// records, on every other record (LRA's horizontal parts) and on the
// leaves of one child of the hierarchy root (VPA's vertical parts), with
// the size-2 supports in the flat table and in the map.
func FuzzAprioriMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 0, 30, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 2, 2, 47, 13, 200, 17, 5, 90, 33, 4, 250})
	f.Add([]byte{0, 0, 1, 5, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, h, k, m := fuzzBaskets(data)
		if ds == nil {
			return
		}
		var idx []int
		for r := 0; r < ds.Len(); r += 2 {
			idx = append(idx, r)
		}
		var allowed map[string]bool
		if roots := h.Root.Children; len(roots) > 0 {
			allowed = make(map[string]bool)
			for _, leaf := range roots[int(data[5])%len(roots)].Leaves() {
				allowed[leaf] = true
			}
		}
		for _, limit := range []int{0, pairTableCap} {
			checkMatchesReference(t, fmt.Sprintf("all records, pair limit %d", limit), ds, nil, h, k, m, nil, limit)
			checkMatchesReference(t, fmt.Sprintf("every other record, pair limit %d", limit), ds, idx, h, k, m, nil, limit)
			if allowed != nil {
				checkMatchesReference(t, fmt.Sprintf("one root subtree, pair limit %d", limit), ds, nil, h, k, m, allowed, limit)
			}
		}
	})
}

// TestPairTableMatchesMap pins the pair table against the map it falls
// back to above pairTableCap: the same inputs through both layouts give
// the same cut, generalization count and published items. The last
// input's hierarchy is too large for the table at the real cap, so there
// the map is the production path and the table is forced.
func TestPairTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		records, items, fanout, k, m int
		wide                         bool
	}{
		{300, 24, 2, 4, 2, false},
		{300, 30, 4, 6, 3, false},
		{400, 200, 2, 4, 2, true},
	} {
		ds := gen.Census(gen.Config{Records: tc.records, Items: tc.items, MaxBasket: 6, Seed: 3})
		h, err := gen.ItemHierarchy(ds, tc.fanout)
		if err != nil {
			t.Fatal(err)
		}
		n := h.Index().Len()
		if wide := pairSlots(n, pairTableCap) == 0; wide != tc.wide {
			t.Fatalf("items=%d: %d nodes, map layout = %v, want %v", tc.items, n, wide, tc.wide)
		}
		var half []int
		for r := 1; r < tc.records; r += 2 {
			half = append(half, r)
		}
		for _, idx := range [][]int{nil, half} {
			label := fmt.Sprintf("items=%d fanout=%d k=%d m=%d subset=%v", tc.items, tc.fanout, tc.k, tc.m, idx != nil)
			mapCut, mapGens, mapItems, mapErr := published(t, ds, idx, h, tc.k, tc.m, nil, 0)
			tabCut, tabGens, tabItems, tabErr := published(t, ds, idx, h, tc.k, tc.m, nil, n*n)
			if mapErr != nil || tabErr != nil {
				t.Fatalf("%s: errors %v (map), %v (table)", label, mapErr, tabErr)
			}
			if mapGens != tabGens || !reflect.DeepEqual(mapCut.Values(), tabCut.Values()) {
				t.Fatalf("%s: map gives %d generalizations to %v, table %d to %v", label, mapGens, mapCut.Values(), tabGens, tabCut.Values())
			}
			if mapGens == 0 {
				t.Fatalf("%s: no repairs, so the layouts were never exercised", label)
			}
			if !reflect.DeepEqual(mapItems, tabItems) {
				t.Fatalf("%s: published items differ between the layouts", label)
			}
		}
	}
}
