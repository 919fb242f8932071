package relational

import (
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/metrics"
	"secreta/internal/privacy"
)

type algo struct {
	name string
	run  func(*dataset.Dataset, Options) (*Result, error)
}

var algos = []algo{
	{"Incognito", Incognito},
	{"TopDown", TopDown},
	{"BottomUp", BottomUp},
	{"Cluster", Cluster},
}

func smallData(t testing.TB) (*dataset.Dataset, generalize.Set) {
	t.Helper()
	ds := gen.Census(gen.Config{Records: 120, Items: 0, Seed: 9})
	hs, err := gen.Hierarchies(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds, hs
}

func TestAllAlgorithmsEnforceKAnonymity(t *testing.T) {
	ds, hs := smallData(t)
	qis, err := ds.QIIndices(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algos {
		for _, k := range []int{2, 5, 10, 25} {
			res, err := a.run(ds, Options{K: k, Hierarchies: hs})
			if err != nil {
				t.Fatalf("%s k=%d: %v", a.name, k, err)
			}
			anon := res.Anonymized.Materialize()
			if anon.Len() != ds.Len() {
				t.Fatalf("%s k=%d: record count changed (%d vs %d)", a.name, k, anon.Len(), ds.Len())
			}
			if !privacy.IsKAnonymous(anon, qis, k) {
				t.Errorf("%s k=%d: output not k-anonymous (min class %d)",
					a.name, k, privacy.MinClassSize(anon, qis))
			}
			if len(res.Phases) == 0 {
				t.Errorf("%s: no phase timings", a.name)
			}
		}
	}
}

func TestOutputsAreGeneralizationsOfInput(t *testing.T) {
	ds, hs := smallData(t)
	qis, _ := ds.QIIndices(nil)
	for _, a := range algos {
		res, err := a.run(ds, Options{K: 5, Hierarchies: hs})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		anon := res.Anonymized.Materialize()
		for r := range ds.Records {
			for _, q := range qis {
				orig := ds.Records[r].Values[q]
				got := anon.Records[r].Values[q]
				h := hs[ds.Attrs[q].Name]
				if !h.Covers(got, orig) {
					t.Fatalf("%s: record %d attr %s: %q does not cover %q",
						a.name, r, ds.Attrs[q].Name, got, orig)
				}
			}
		}
	}
}

func TestInputNeverMutated(t *testing.T) {
	ds, hs := smallData(t)
	before := ds.Clone()
	for _, a := range algos {
		if _, err := a.run(ds, Options{K: 5, Hierarchies: hs}); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		for r := range ds.Records {
			for i := range ds.Records[r].Values {
				if ds.Records[r].Values[i] != before.Records[r].Values[i] {
					t.Fatalf("%s mutated the input dataset", a.name)
				}
			}
		}
	}
}

func TestUtilityOrderingLocalVsFullDomain(t *testing.T) {
	ds, hs := smallData(t)
	qis, _ := ds.QIIndices(nil)
	k := 10
	inc, err := Incognito(ds, Options{K: k, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	clu, err := Cluster(ds, Options{K: k, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	gInc, _ := metrics.GCP(inc.Anonymized.Materialize(), hs, qis)
	gClu, _ := metrics.GCP(clu.Anonymized.Materialize(), hs, qis)
	// Local recoding should not lose (noticeably) more information than
	// full-domain recoding — the paper's headline comparison shape.
	if gClu > gInc+0.05 {
		t.Errorf("Cluster GCP %.4f worse than Incognito %.4f", gClu, gInc)
	}
}

func TestGCPGrowsWithK(t *testing.T) {
	ds, hs := smallData(t)
	qis, _ := ds.QIIndices(nil)
	for _, a := range algos {
		g2 := 0.0
		g40 := 0.0
		for _, k := range []int{2, 40} {
			res, err := a.run(ds, Options{K: k, Hierarchies: hs})
			if err != nil {
				t.Fatalf("%s k=%d: %v", a.name, k, err)
			}
			g, err := metrics.GCP(res.Anonymized.Materialize(), hs, qis)
			if err != nil {
				t.Fatal(err)
			}
			if k == 2 {
				g2 = g
			} else {
				g40 = g
			}
		}
		if g40+1e-9 < g2 {
			t.Errorf("%s: GCP dropped from %.4f (k=2) to %.4f (k=40)", a.name, g2, g40)
		}
	}
}

func TestSubsetOfQIs(t *testing.T) {
	ds, hs := smallData(t)
	for _, a := range algos {
		res, err := a.run(ds, Options{K: 5, QIs: []string{"Age", "Gender"}, Hierarchies: hs})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		qis, _ := ds.QIIndices([]string{"Age", "Gender"})
		if !privacy.IsKAnonymous(res.Anonymized.Materialize(), qis, 5) {
			t.Errorf("%s: not 5-anonymous on QI subset", a.name)
		}
		// Non-QI attributes untouched.
		zi := ds.AttrIndex("Zip")
		anon := res.Anonymized.Materialize()
		for r := range ds.Records {
			if anon.Records[r].Values[zi] != ds.Records[r].Values[zi] {
				t.Fatalf("%s: non-QI attribute modified", a.name)
			}
		}
	}
}

func TestOptionErrors(t *testing.T) {
	ds, hs := smallData(t)
	for _, a := range algos {
		if _, err := a.run(ds, Options{K: 0, Hierarchies: hs}); err == nil {
			t.Errorf("%s: k=0 accepted", a.name)
		}
		if _, err := a.run(ds, Options{K: 2, QIs: []string{"Nope"}, Hierarchies: hs}); err == nil {
			t.Errorf("%s: unknown QI accepted", a.name)
		}
		if _, err := a.run(ds, Options{K: 2, Hierarchies: generalize.Set{}}); err == nil {
			t.Errorf("%s: missing hierarchies accepted", a.name)
		}
		if _, err := a.run(ds, Options{K: ds.Len() + 1, Hierarchies: hs}); err == nil {
			t.Errorf("%s: k > n accepted", a.name)
		}
	}
}

func TestHierarchyMissingValue(t *testing.T) {
	ds, hs := smallData(t)
	bad := ds.Clone()
	bad.Records[0].Values[0] = "unknown-age"
	for _, a := range algos {
		if _, err := a.run(bad, Options{K: 2, Hierarchies: hs}); err == nil {
			t.Errorf("%s: value missing from hierarchy accepted", a.name)
		}
	}
}

func TestIncognitoDiagnostics(t *testing.T) {
	ds, hs := smallData(t)
	res, err := Incognito(ds, Options{K: 5, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels == nil {
		t.Error("Incognito returned no level vector")
	}
	if res.NodesChecked <= 0 {
		t.Error("Incognito checked no nodes")
	}
	qis, _ := ds.QIIndices(nil)
	if len(res.Levels) != len(qis) {
		t.Errorf("levels arity = %d", len(res.Levels))
	}
}

func TestIncognitoMinimality(t *testing.T) {
	ds, hs := smallData(t)
	qis, _ := ds.QIIndices(nil)
	res, err := Incognito(ds, Options{K: 5, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	// Specializing any single attribute one level must break k-anonymity
	// (the chosen node is minimal).
	for i := range res.Levels {
		if res.Levels[i] == 0 {
			continue
		}
		trial := append([]int(nil), res.Levels...)
		trial[i]--
		cand, err := generalize.FullDomain(ds, hs, qis, trial)
		if err != nil {
			t.Fatal(err)
		}
		if privacy.IsKAnonymous(cand, qis, 5) {
			t.Errorf("level vector %v is not minimal: %v also k-anonymous", res.Levels, trial)
		}
	}
}

func TestClusterCountsAndSizes(t *testing.T) {
	ds, hs := smallData(t)
	k := 7
	res, err := Cluster(ds, Options{K: k, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters <= 0 || res.Clusters > ds.Len()/k {
		t.Errorf("clusters = %d for n=%d k=%d", res.Clusters, ds.Len(), k)
	}
}

func TestEnumerateSubsetsOrder(t *testing.T) {
	subs := enumerateSubsets(3)
	if len(subs) != 7 {
		t.Fatalf("subsets = %v", subs)
	}
	for i := 1; i < len(subs); i++ {
		if len(subs[i]) < len(subs[i-1]) {
			t.Fatalf("subsets not size-ordered: %v", subs)
		}
	}
	if len(subs[len(subs)-1]) != 3 {
		t.Fatalf("last subset not full: %v", subs)
	}
}
