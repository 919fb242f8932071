package metrics

import (
	"sort"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
)

// applyItemCut recodes every basket of ds through the cut on strings,
// returning a new dataset: the recoding the indicator tests price.
func applyItemCut(ds *dataset.Dataset, cut *hierarchy.Cut) (*dataset.Dataset, error) {
	var err error
	out := recodeItems(ds, func(it string) string {
		g, mapErr := cut.Map(it)
		if mapErr != nil && err == nil {
			err = mapErr
		}
		return g
	})
	return out, err
}

// applyItemMapping recodes items through a COAT/PCTA-style mapping
// table: items absent from the mapping pass through, items mapped to ""
// are suppressed.
func applyItemMapping(ds *dataset.Dataset, mapping map[string]string) *dataset.Dataset {
	return recodeItems(ds, func(it string) string {
		if g, ok := mapping[it]; ok {
			return g
		}
		return it
	})
}

// recodeItems returns a copy of ds whose baskets hold the sorted,
// deduplicated non-empty images of their items under label.
func recodeItems(ds *dataset.Dataset, label func(string) string) *dataset.Dataset {
	out := ds.Clone()
	for r := range out.Records {
		set := make(map[string]bool)
		for _, it := range out.Records[r].Items {
			if g := label(it); g != "" {
				set[g] = true
			}
		}
		var items []string
		for g := range set {
			items = append(items, g)
		}
		sort.Strings(items)
		out.Records[r].Items = items
	}
	return out
}
