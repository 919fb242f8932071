package relational

import (
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
)

// exactGCP returns, as an exact rational, the GCP of ds generalized
// levels[i] steps up QI i's hierarchy, the records of classes smaller
// than k suppressed when suppress is set: each cell costs
// (leaves-1)/(all leaves-1) of its value, or 1 when it is suppressed or
// valued generalize.Suppressed, as metrics.GCP prices it.
func exactGCP(t *testing.T, ds *dataset.Dataset, hs generalize.Set, qis, levels []int, k int, suppress bool) *big.Rat {
	t.Helper()
	cand, err := generalize.FullDomain(ds, hs, qis, levels)
	if err != nil {
		t.Fatal(err)
	}
	suppressed := make([]bool, cand.Len())
	if suppress {
		for _, r := range naiveSmallRecords(cand, qis, k) {
			suppressed[r] = true
		}
	}
	sum := new(big.Rat)
	for r, rec := range cand.Records {
		for _, q := range qis {
			h := hs[ds.Attrs[q].Name]
			cost := big.NewRat(1, 1)
			if v := rec.Values[q]; !suppressed[r] && v != generalize.Suppressed && h.Root.LeafCount() > 1 {
				cost.SetFrac64(int64(h.Node(v).LeafCount()-1), int64(h.Root.LeafCount()-1))
			}
			sum.Add(sum, cost)
		}
	}
	return sum.Quo(sum, big.NewRat(int64(cand.Len()*len(qis)), 1))
}

// FuzzRelationalRecordOrder checks a metamorphic relation of the
// full-domain and cut-based algorithms: their choices rest on class sizes
// and value counts, never on record positions, so permuting the input
// records must only permute the published records. Incognito runs with
// and without a suppression budget. Cluster is left out: it seeds each
// cluster with the first unassigned record, so record order is part of
// its input.
//
// Incognito breaks the relation on GCP ties: it publishes the first
// minimal node of least GCP as a float sum taken in record order, so two
// nodes of equal exact GCP can swap places when the records move (the
// committed incognito-gcp-tie-rounding input). Where the two runs publish
// different levels, the check requires their exact GCPs to be equal.
func FuzzRelationalRecordOrder(f *testing.F) {
	f.Add([]byte{1, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 1, 40, 0, 0, 0, 1, 1, 1, 200, 17, 5})
	f.Add([]byte{7, 2, 63, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, k, fanout := fuzzDataset(data, false)
		if ds == nil {
			return
		}
		hs, err := gen.Hierarchies(ds, fanout)
		if err != nil {
			t.Skip(err)
		}
		h := fnv.New64a()
		h.Write(data)
		perm := rand.New(rand.NewSource(int64(h.Sum64()))).Perm(ds.Len())
		shuffled := dataset.New(ds.Attrs, ds.TransName)
		for _, r := range perm {
			shuffled.Records = append(shuffled.Records, ds.Records[r])
		}
		for _, run := range []struct {
			name string
			algo func(*dataset.Dataset, Options) (*Result, error)
			supp float64
		}{
			{"Incognito", Incognito, 0},
			{"Incognito", Incognito, 0.1},
			{"BottomUp", BottomUp, 0},
			{"TopDown", TopDown, 0},
		} {
			opts := Options{K: k, Hierarchies: hs, MaxSuppression: run.supp}
			want, errWant := run.algo(ds, opts)
			got, errGot := run.algo(shuffled, opts)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s supp=%v: error %v on the input, %v on its permutation", run.name, run.supp, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if run.name == "Incognito" && fmt.Sprint(want.Levels) != fmt.Sprint(got.Levels) {
				qis, _ := ds.QIIndices(nil)
				budget := int(run.supp*float64(ds.Len())) > 0
				if gw, gg := exactGCP(t, ds, hs, qis, want.Levels, k, budget), exactGCP(t, ds, hs, qis, got.Levels, k, budget); gw.Cmp(gg) != 0 {
					t.Fatalf("Incognito supp=%v: levels %v on the input, %v on its permutation, exact GCPs %v and %v", run.supp, want.Levels, got.Levels, gw, gg)
				}
				continue
			}
			a, b := want.Anonymized.Materialize(), got.Anonymized.Materialize()
			for j, r := range perm {
				if w, g := fmt.Sprintf("%q", a.Records[r].Values), fmt.Sprintf("%q", b.Records[j].Values); w != g {
					t.Fatalf("%s supp=%v: record %d published %s, as record %d of the permutation %s", run.name, run.supp, r, w, j, g)
				}
			}
		}
	})
}
