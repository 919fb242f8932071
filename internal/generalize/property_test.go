package generalize_test

import (
	"fmt"
	"math/rand"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
)

// Property: coarsening a cut never decreases the minimum equivalence-class
// size — the monotonicity every bottom-up/top-down algorithm relies on.
func TestCutCoarseningMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		// Random single-attribute dataset over a random hierarchy.
		domainSize := 4 + rng.Intn(20)
		vals := make([]string, domainSize)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%02d", i)
		}
		h, err := hierarchy.AutoCategorical("A", vals, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
		n := 10 + rng.Intn(60)
		for i := 0; i < n; i++ {
			rec := dataset.Record{Values: []string{vals[rng.Intn(domainSize)]}}
			if err := ds.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		cut := hierarchy.NewLeafCut(h)
		prevMin := -1
		for step := 0; step < 50; step++ {
			anon := applyCut(t, ds, cut)
			min := privacy.MinClassSize(anon, []int{0})
			if prevMin >= 0 && min < prevMin {
				t.Fatalf("trial %d: min class size dropped %d -> %d after coarsening", trial, prevMin, min)
			}
			prevMin = min
			// Coarsen a random non-root cut node.
			var candidates []string
			for _, v := range cut.Values() {
				if nd := h.Node(v); nd != nil && nd.Parent != nil {
					candidates = append(candidates, v)
				}
			}
			if len(candidates) == 0 {
				break
			}
			if err := cut.Generalize(candidates[rng.Intn(len(candidates))]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Property: FullDomain at a dominating level vector yields classes that are
// coarsenings — min class size is monotone in the level vector.
func TestFullDomainLevelMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := make([]string, 12)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%02d", i)
	}
	h, err := hierarchy.AutoCategorical("A", vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := generalize.Set{"A": h}
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	for i := 0; i < 80; i++ {
		rec := dataset.Record{Values: []string{vals[rng.Intn(len(vals))]}}
		if err := ds.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	prev := -1
	for lvl := 0; lvl <= h.Height(); lvl++ {
		anon, err := generalize.FullDomain(ds, hs, []int{0}, []int{lvl})
		if err != nil {
			t.Fatal(err)
		}
		min := privacy.MinClassSize(anon, []int{0})
		if prev >= 0 && min < prev {
			t.Fatalf("min class size dropped %d -> %d at level %d", prev, min, lvl)
		}
		prev = min
	}
	if prev != ds.Len() {
		t.Errorf("root level min class = %d, want %d", prev, ds.Len())
	}
}

// applyCut recodes column 0 of a copy of ds through cut.
func applyCut(t *testing.T, ds *dataset.Dataset, cut *hierarchy.Cut) *dataset.Dataset {
	t.Helper()
	out := ds.Clone()
	for r := range out.Records {
		g, err := cut.Map(out.Records[r].Values[0])
		if err != nil {
			t.Fatal(err)
		}
		out.Records[r].Values[0] = g
	}
	return out
}
