package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
)

// Property: GCP stays in [0,1] for arbitrary cut-generalized datasets, and
// coarsening a cut never decreases it.
func TestGCPBoundsAndMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		domainSize := 4 + rng.Intn(16)
		vals := make([]string, domainSize)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%02d", i)
		}
		h, err := hierarchy.AutoCategorical("A", vals, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		hs := generalize.Set{"A": h}
		ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
		for i := 0; i < 10+rng.Intn(40); i++ {
			rec := dataset.Record{Values: []string{vals[rng.Intn(domainSize)]}}
			if err := ds.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		cut := hierarchy.NewLeafCut(h)
		prev := -1.0
		for step := 0; step < 40; step++ {
			anon := applyCut(t, ds, cut)
			g, err := GCP(anon, hs, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			if g < 0 || g > 1 {
				t.Fatalf("trial %d: GCP out of bounds: %v", trial, g)
			}
			if prev >= 0 && g < prev-1e-12 {
				t.Fatalf("trial %d: GCP dropped %v -> %v after coarsening", trial, prev, g)
			}
			prev = g
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
		if prev != 1 && ds.Len() > 0 && domainSize > 1 {
			t.Fatalf("trial %d: fully generalized GCP = %v, want 1", trial, prev)
		}
	}
}

// Property: TransactionGCP stays in [0,1] for random item cuts.
func TestTransactionGCPBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	vals := make([]string, 12)
	for i := range vals {
		vals[i] = fmt.Sprintf("i%02d", i)
	}
	h, err := hierarchy.AutoCategorical("T", vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
		for i := 0; i < 15+rng.Intn(25); i++ {
			var items []string
			for _, v := range vals {
				if rng.Intn(4) == 0 {
					items = append(items, v)
				}
			}
			if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
				t.Fatal(err)
			}
		}
		cut := hierarchy.NewLeafCut(h)
		for step := 0; step < rng.Intn(8); step++ {
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
		anon, err := applyItemCut(ds, cut)
		if err != nil {
			t.Fatal(err)
		}
		g, err := TransactionGCP(ds, dataset.Intern(anon), h)
		if err != nil {
			t.Fatal(err)
		}
		if g < 0 || g > 1 {
			t.Fatalf("trial %d: TransactionGCP = %v", trial, g)
		}
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
