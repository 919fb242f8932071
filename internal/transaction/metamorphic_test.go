package transaction

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
)

// permuted returns ds's records in the order perm lists them.
func permuted(ds *dataset.Dataset, perm []int) *dataset.Dataset {
	out := dataset.New(ds.Attrs, ds.TransName)
	for _, r := range perm {
		out.Records = append(out.Records, ds.Records[r])
	}
	return out
}

// basketPairs counts the (input basket, published basket) pairs of a run
// over the records of in.
func basketPairs(in, out *dataset.Dataset) map[string]int {
	pairs := make(map[string]int)
	for r := range in.Records {
		pairs[strings.Join(in.Records[r].Items, ",")+" -> "+strings.Join(out.Records[r].Items, ",")]++
	}
	return pairs
}

// FuzzHierarchyRecordOrder checks the record-order relation of the
// hierarchy-based algorithms. Apriori and VPA choose their repairs from
// itemset supports and item names, never from record positions, so
// permuting the input records must only permute the published records.
// LRA partitions the records by a stable sort on their baskets, so
// records with identical baskets keep their input order and can land in
// different parts (TestLRARecordOrderCounterexample); its check is the
// relation up to such exchanges: each input basket publishes the same
// multiset of baskets, and the run makes as many generalizations.
func FuzzHierarchyRecordOrder(f *testing.F) {
	f.Add([]byte{3, 1, 0, 30, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 47, 5, 0, 0, 3, 3, 1, 4})
	f.Add([]byte{4, 2, 2, 47, 13, 200, 17, 5, 90, 33, 4, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, h, k, m := fuzzBaskets(data)
		if ds == nil {
			return
		}
		hash := fnv.New64a()
		hash.Write(data)
		perm := rand.New(rand.NewSource(int64(hash.Sum64()))).Perm(ds.Len())
		shuffled := permuted(ds, perm)
		for _, run := range []struct {
			name string
			algo func(*dataset.Dataset, Options) (*Result, error)
		}{
			{"Apriori", Apriori},
			{"VPA", VPA},
			{"LRA", LRA},
		} {
			opts := Options{K: k, M: m, ItemHierarchy: h, Partitions: 3}
			want, errWant := run.algo(ds, opts)
			got, errGot := run.algo(shuffled, opts)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s: error %v on the input, %v on its permutation", run.name, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if want.Generalizations != got.Generalizations {
				t.Fatalf("%s: %d generalizations on the input, %d on its permutation", run.name, want.Generalizations, got.Generalizations)
			}
			if run.name == "LRA" {
				if w, g := basketPairs(ds, publishedRecords(ds, want)), basketPairs(shuffled, publishedRecords(shuffled, got)); !reflect.DeepEqual(w, g) {
					t.Fatalf("LRA: input and published baskets %v, on the permutation %v", w, g)
				}
				continue
			}
			wantRecs, gotRecs := publishedRecords(ds, want).Records, publishedRecords(shuffled, got).Records
			for j, r := range perm {
				if w, g := wantRecs[r], gotRecs[j]; !reflect.DeepEqual(w, g) {
					t.Fatalf("%s: record %d published %q, as record %d of the permutation %q", run.name, r, w, j, g)
				}
			}
		}
	})
}

// FuzzMappingRecordOrder checks the record-order relation of the
// mapping-based algorithms. COAT and PCTA choose their merges and
// suppressions from published supports, policy order and item names, and
// rho-uncertainty its suppressions from rule confidences, supports and
// item names, never from record positions; so permuting the input records
// must only permute the published records, with the same Mapping,
// Suppressed list and generalization count. The policies are derived once
// from the input (PrivacyFrequent and UtilityTop list their constraints
// in item order, so they do not depend on record order either).
func FuzzMappingRecordOrder(f *testing.F) {
	f.Add([]byte{3, 1, 0, 30, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 47, 5, 0, 0, 3, 3, 1, 4})
	f.Add([]byte{4, 2, 2, 47, 13, 200, 17, 5, 90, 33, 4, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, _, k, m := fuzzBaskets(data)
		if ds == nil {
			return
		}
		hash := fnv.New64a()
		hash.Write(data)
		perm := rand.New(rand.NewSource(int64(hash.Sum64()))).Perm(ds.Len())
		shuffled := permuted(ds, perm)
		pol := &policy.Policy{Privacy: policy.PrivacyFrequent(ds, 1, m), Utility: policy.UtilityTop(ds)}
		domain := ds.ItemDomain()
		sensitive := []string{domain[int(data[0])%len(domain)]}
		rho := 0.1 + 0.8*float64(data[1])/255
		for _, run := range []struct {
			name string
			algo func(*dataset.Dataset, Options) (*Result, error)
			opts Options
		}{
			{"COAT", COAT, Options{K: k, Policy: pol}},
			{"PCTA", PCTA, Options{K: k, Policy: pol}},
			{"PCTA/no-utility", PCTA, Options{K: k, Policy: &policy.Policy{Privacy: pol.Privacy}}},
			{"rho", RhoUncertainty, Options{M: m, Rho: rho, Sensitive: sensitive}},
		} {
			want, errWant := run.algo(ds, run.opts)
			got, errGot := run.algo(shuffled, run.opts)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s: error %v on the input, %v on its permutation", run.name, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !reflect.DeepEqual(want.Mapping, got.Mapping) || !reflect.DeepEqual(want.Suppressed, got.Suppressed) || want.Generalizations != got.Generalizations {
				t.Fatalf("%s: mapping %v, suppressed %v, %d generalizations on the input; %v, %v, %d on its permutation",
					run.name, want.Mapping, want.Suppressed, want.Generalizations, got.Mapping, got.Suppressed, got.Generalizations)
			}
			wantRecs, gotRecs := publishedRecords(ds, want).Records, publishedRecords(shuffled, got).Records
			for j, r := range perm {
				if w, g := wantRecs[r], gotRecs[j]; !reflect.DeepEqual(w, g) {
					t.Fatalf("%s: record %d published %q, as record %d of the permutation %q", run.name, r, w, j, g)
				}
			}
		}
	})
}

// TestLRARecordOrderCounterexample commits the input on which LRA breaks
// the strict record-order relation. Sorted by basket, the records read
// {a} {b} {b} {c}; with k = 2 the first part {a} {b} generalizes to X
// while the second part {b} {c} needs the root. The two {b} records keep
// their input order, so swapping them swaps which one publishes X.
func TestLRARecordOrderCounterexample(t *testing.T) {
	h, err := hierarchy.NewBuilder("items").
		Add("All", "X").Add("All", "Y").
		Add("X", "a").Add("X", "b").
		Add("Y", "c").Add("Y", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New([]dataset.Attribute{{Name: "id"}}, "items")
	for r, items := range [][]string{{"a"}, {"b"}, {"b"}, {"c"}} {
		if err := ds.AddRecord(dataset.Record{Values: []string{fmt.Sprint(r)}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	perm := []int{0, 2, 1, 3}
	opts := Options{K: 2, M: 1, ItemHierarchy: h, Partitions: 2}
	want, err := LRA(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LRA(permuted(ds, perm), opts)
	if err != nil {
		t.Fatal(err)
	}
	published := func(in *dataset.Dataset, res *Result, id string) string {
		for _, rec := range publishedRecords(in, res).Records {
			if rec.Values[0] == id {
				return strings.Join(rec.Items, ",")
			}
		}
		return ""
	}
	if a, b := published(ds, want, "1"), published(permuted(ds, perm), got, "1"); a != "X" || b != "All" {
		t.Fatalf("record 1 published %q on the input and %q on the permutation, want X and All", a, b)
	}
	if w, g := basketPairs(ds, publishedRecords(ds, want)), basketPairs(permuted(ds, perm), publishedRecords(permuted(ds, perm), got)); !reflect.DeepEqual(w, g) {
		t.Fatalf("basket pairs differ: %v and %v", w, g)
	}
}
