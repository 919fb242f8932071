package relational

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
)

// refGCP is metrics.GCP as a string loop of its own, sharing no code with
// the column loop (metrics.MeanNCP) that metrics.GCP and Incognito's
// scores run: the average over QI cells of each value's NCP, 1 for a
// suppressed value or one its hierarchy lacks, summed record by record
// and QI by QI.
func refGCP(t *testing.T, anon *dataset.Dataset, hs generalize.Set, qis []int) float64 {
	t.Helper()
	if len(anon.Records) == 0 || len(qis) == 0 {
		return 0
	}
	total := 0.0
	for _, rec := range anon.Records {
		for _, q := range qis {
			h, v := hs[anon.Attrs[q].Name], rec.Values[q]
			if v == generalize.Suppressed || !h.Contains(v) {
				total++
				continue
			}
			ncp, err := h.NCP(v)
			if err != nil {
				t.Fatal(err)
			}
			total += ncp
		}
	}
	return total / float64(len(anon.Records)*len(qis))
}

// checkScores requires the score Incognito gives every minimal node its
// search finds on ds to equal refGCP of the materialized candidate bit for
// bit.
func checkScores(t *testing.T, name string, ds *dataset.Dataset, opts Options) {
	t.Helper()
	view, err := opts.validate(ds)
	if err != nil {
		t.Fatal(err)
	}
	budget := int(opts.MaxSuppression * float64(ds.Len()))
	minimal, _, err := view.incognitoSearch(opts, budget)
	if err != nil {
		t.Fatal(err)
	}
	sc := view.newScorer()
	for _, node := range minimal {
		cand, err := generalize.FullDomain(ds, opts.Hierarchies, view.qis, node)
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			refSuppress(cand, view.qis, opts.K)
		}
		want := refGCP(t, cand, opts.Hierarchies, view.qis)
		if got := sc.score(node, opts.K, budget); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s node %v: view score %v, GCP %v", name, node, got, want)
		}
	}
}

// TestIncognitoScoreMatchesGCP requires the view score of every minimal
// node of every Incognito run over digestGrid, leaf-valued and partly
// generalized, to equal refGCP of the materialized candidate bit for
// bit: Incognito picks its node on these scores, so the strict-< choice
// among minimal nodes, and with it the published output, rests on them.
func TestIncognitoScoreMatchesGCP(t *testing.T) {
	for _, partial := range []bool{false, true} {
		digestGrid(t, partial, func(name string, ds *dataset.Dataset, opts Options) {
			checkScores(t, fmt.Sprintf("partial=%v %s", partial, name), ds, opts)
		})
	}
}

// twoLeafHierarchy builds attr's hierarchy root -> {a, b}.
func twoLeafHierarchy(t *testing.T, attr, root, a, b string) *hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.NewBuilder(attr).Add(root, a).Add(root, b).Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestIncognitoEdgeCases pins Incognito on an empty and a one-record
// dataset, on two minimal nodes of equal GCP, where the strict-< choice
// keeps the first in sortMinimal's order, and on a one-leaf
// hierarchy whose root is the suppression marker, which refGCP
// prices at 1 although its NCP is 0. Every case also checks the view
// scores.
func TestIncognitoEdgeCases(t *testing.T) {
	attrs := []dataset.Attribute{{Name: "A", Kind: dataset.Categorical}, {Name: "B", Kind: dataset.Categorical}}
	hs := generalize.Set{
		"A": twoLeafHierarchy(t, "A", "A*", "a1", "a2"),
		"B": twoLeafHierarchy(t, "B", "B*", "b1", "b2"),
	}
	star, err := hierarchy.NewBuilder("B").Add(generalize.Suppressed, "b").Build()
	if err != nil {
		t.Fatal(err)
	}
	starHS := generalize.Set{"A": hs["A"], "B": star}
	build := func(rows ...[]string) *dataset.Dataset {
		ds := dataset.New(attrs, "")
		for _, row := range rows {
			if err := ds.AddRecord(dataset.Record{Values: row}); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	for _, c := range []struct {
		name        string
		ds          *dataset.Dataset
		hs          generalize.Set
		k           int
		supp        float64
		wantErr     bool
		wantLevels  []int
		wantChecked int
		wantRecords [][]string
	}{
		{name: "empty", ds: build(), k: 2, wantLevels: []int{0, 0}, wantChecked: 3},
		{name: "empty-supp", ds: build(), k: 2, supp: 0.5, wantLevels: []int{0, 0}, wantChecked: 3},
		{name: "one-record-k1", ds: build([]string{"a1", "b2"}), k: 1, wantLevels: []int{0, 0}, wantChecked: 3,
			wantRecords: [][]string{{"a1", "b2"}}},
		{name: "one-record-k2", ds: build([]string{"a1", "b2"}), k: 2, wantErr: true},
		{name: "one-record-k2-supp", ds: build([]string{"a1", "b2"}), k: 2, supp: 0.5, wantErr: true},
		{name: "equal-gcp", ds: build([]string{"a1", "b1"}, []string{"a1", "b2"}, []string{"a2", "b1"}, []string{"a2", "b2"}),
			k: 2, wantLevels: []int{0, 1}, wantChecked: 5,
			wantRecords: [][]string{{"a1", "B*"}, {"a1", "B*"}, {"a2", "B*"}, {"a2", "B*"}}},
		{name: "star-root", ds: build([]string{"a1", "*"}, []string{"a2", "b"}, []string{"a1", "b"}), hs: starHS,
			k: 1, supp: 0.5, wantLevels: []int{0, 0}, wantChecked: 3,
			wantRecords: [][]string{{"a1", "*"}, {"a2", "b"}, {"a1", "b"}}},
	} {
		if c.hs == nil {
			c.hs = hs
		}
		for _, ix := range []*dataset.Indexed{nil, dataset.Intern(c.ds)} {
			opts := Options{K: c.k, Hierarchies: c.hs, MaxSuppression: c.supp, Interned: ix}
			res, err := Incognito(c.ds, opts)
			if c.wantErr {
				if err == nil {
					t.Errorf("%s: no error, levels %v", c.name, res.Levels)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			checkScores(t, c.name, c.ds, opts)
			var got [][]string
			for _, rec := range res.Anonymized.Materialize().Records {
				got = append(got, rec.Values)
			}
			if !reflect.DeepEqual(res.Levels, c.wantLevels) || res.NodesChecked != c.wantChecked || !reflect.DeepEqual(got, c.wantRecords) {
				t.Errorf("%s: levels %v, %d nodes checked, records %v; want %v, %d, %v",
					c.name, res.Levels, res.NodesChecked, got, c.wantLevels, c.wantChecked, c.wantRecords)
			}
		}
	}
}

// TestSortMinimalOrder pins the order that breaks GCP ties among minimal
// nodes: level sum first, then the comma-joined levels compared as
// strings, so at equal sum [10 1] ("10,1") precedes [2 9] ("2,9").
func TestSortMinimalOrder(t *testing.T) {
	nodes := [][]int{{2, 9}, {10, 1}, {1, 2}, {0, 3}, {5, 6}, {0, 12}}
	sortMinimal(nodes)
	want := [][]int{{0, 3}, {1, 2}, {10, 1}, {2, 9}, {5, 6}, {0, 12}}
	if !reflect.DeepEqual(nodes, want) {
		t.Errorf("order %v, want %v", nodes, want)
	}
}
