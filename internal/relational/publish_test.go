package relational

import (
	"fmt"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
)

// refSuppress suppresses every record of ds whose equivalence class is
// smaller than k, on strings, as Incognito did before it published
// interned columns.
func refSuppress(ds *dataset.Dataset, qis []int, k int) {
	for _, cl := range privacy.Partition(ds, qis) {
		if len(cl.Records) < k {
			for _, r := range cl.Records {
				generalize.SuppressRecord(ds, qis, r)
			}
		}
	}
}

// refApplyCuts recodes every QI value of a copy of ds through its QI's
// cut, on strings, as BottomUp and TopDown did before they published
// interned columns.
func refApplyCuts(t *testing.T, ds *dataset.Dataset, cuts []*hierarchy.Cut, qis []int) *dataset.Dataset {
	t.Helper()
	out := ds.Clone()
	for r := range out.Records {
		for i, q := range qis {
			g, err := cuts[i].Map(out.Records[r].Values[q])
			if err != nil {
				t.Fatal(err)
			}
			out.Records[r].Values[q] = g
		}
	}
	return out
}

// publishedCuts rebuilds each QI's cut from the values published on it:
// starting from the root, every strict ancestor of a published value is
// specialized.
func publishedCuts(t *testing.T, anon *dataset.Indexed, qis []int, hh []*hierarchy.Hierarchy) []*hierarchy.Cut {
	t.Helper()
	cuts := make([]*hierarchy.Cut, len(qis))
	for i, q := range qis {
		cuts[i] = hierarchy.NewCut(hh[i])
		for _, v := range anon.Dicts[q].Values() {
			var path []string
			for n := hh[i].Node(v).Parent; n != nil; n = n.Parent {
				path = append(path, n.Value)
			}
			for j := len(path) - 1; j >= 0; j-- {
				if cuts[i].Contains(path[j]) {
					if err := cuts[i].Specialize(path[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return cuts
}

// refOutput builds, on strings, what the named algorithm published on ds
// before the algorithms published interned columns: Incognito's levels
// through generalize.FullDomain plus string suppression, the cuts through
// refApplyCuts, and Cluster's clusters with their LCA values.
func refOutput(t *testing.T, name string, ds *dataset.Dataset, opts Options, res *Result) *dataset.Dataset {
	t.Helper()
	view, err := opts.validate(ds)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "Incognito":
		out, err := generalize.FullDomain(ds, opts.Hierarchies, view.qis, res.Levels)
		if err != nil {
			t.Fatal(err)
		}
		if int(opts.MaxSuppression*float64(ds.Len())) > 0 {
			refSuppress(out, view.qis, opts.K)
		}
		return out
	case "Cluster":
		clusters, err := buildClusters(view, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := ds.Clone()
		for _, cl := range clusters {
			for i, q := range view.qis {
				for _, r := range cl.members {
					out.Records[r].Values[q] = cl.lca[i].Value
				}
			}
		}
		return out
	}
	return refApplyCuts(t, ds, publishedCuts(t, res.Anonymized, view.qis, view.hh), view.qis)
}

// checkPublished requires every algorithm's published columns on ds to
// decode to refOutput's records, every QI dictionary to hold exactly the
// values its column uses in rank order, the columns' size estimate to be
// that of the materialized dataset, and the shared input interning, if
// any, to be left unchanged.
func checkPublished(t *testing.T, name string, ds *dataset.Dataset, opts Options) {
	t.Helper()
	var before string
	if opts.Interned != nil {
		before = opts.Interned.Materialize().Fingerprint()
	}
	for _, a := range algos {
		res, err := a.run(ds, opts)
		if err != nil {
			continue // errors are pinned by TestOutputDigest and the unit tests
		}
		anon := res.Anonymized
		want := refOutput(t, a.name, ds, opts, res)
		if anon.N != want.Len() {
			t.Fatalf("%s %s: %d records, reference %d", a.name, name, anon.N, want.Len())
		}
		anon.ScanRecords(func(r int, rec dataset.Record) bool {
			if got, w := fmt.Sprintf("%q %q", rec.Values, rec.Items), fmt.Sprintf("%q %q", want.Records[r].Values, want.Records[r].Items); got != w {
				t.Fatalf("%s %s record %d: published %s, reference %s", a.name, name, r, got, w)
			}
			return true
		})
		qis, _ := ds.QIIndices(opts.QIs)
		for _, q := range qis {
			vals, used := anon.Dicts[q].Values(), make([]bool, anon.Dicts[q].Len())
			for _, id := range anon.Cols[q] {
				used[id] = true
			}
			for id := range vals {
				if id > 0 && vals[id-1] >= vals[id] || !used[id] {
					t.Fatalf("%s %s: QI %d dictionary %q is not the rank-ordered set of its column's values", a.name, name, q, vals)
				}
			}
		}
		if got, w := anon.ApproxBytes(), anon.Materialize().ApproxBytes(); got != w {
			t.Fatalf("%s %s: columns estimate %d bytes, materialized dataset %d", a.name, name, got, w)
		}
	}
	if opts.Interned != nil && opts.Interned.Materialize().Fingerprint() != before {
		t.Fatalf("%s: the runs wrote to the shared interning", name)
	}
}

// TestPublishedColumnsMatchReference pins what the four algorithms publish
// as interned columns to the string recodings they published before:
// on digestGrid's partly generalized input, and on generated census data
// with baskets, which suppressed records lose, each with and without the
// shared interning and Incognito's suppression budget.
func TestPublishedColumnsMatchReference(t *testing.T) {
	digestGrid(t, true, func(name string, ds *dataset.Dataset, opts Options) {
		checkPublished(t, "partial/"+name, ds, opts)
	})
	for _, seed := range []int64{1, 2} {
		ds := gen.Census(gen.Config{Records: 300, Items: 8, Seed: seed})
		shared := dataset.Intern(ds)
		for _, fanout := range []int{2, 4} {
			hs, err := gen.Hierarchies(ds, fanout)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 5, 10} {
				for _, supp := range []float64{0, 0.05} {
					for _, ix := range []*dataset.Indexed{nil, shared} {
						name := fmt.Sprintf("census/seed%d/f%d/k%d/supp%v/shared%v", seed, fanout, k, supp, ix != nil)
						checkPublished(t, name, ds, Options{K: k, Hierarchies: hs, MaxSuppression: supp, Interned: ix})
					}
				}
			}
		}
	}
}
