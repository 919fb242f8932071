// Tests over the hand-written sample data in testdata/: a miniature
// patient RT-dataset with curated hierarchies, workload, and COAT
// policies. These pin the file formats (they are documentation by example)
// and exercise the full stack on data a human can eyeball.
package secreta

import (
	"path/filepath"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/privacy"
	"secreta/internal/query"
	"secreta/internal/rt"
)

func loadTestdata(t *testing.T) (*dataset.Dataset, generalize.Set, *hierarchy.Hierarchy, *query.Workload) {
	t.Helper()
	ds, err := dataset.LoadFile(filepath.Join("testdata", "patients.csv"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := make(generalize.Set)
	for _, name := range []string{"Age", "Gender", "Zip"} {
		h, err := hierarchy.LoadFile(name, filepath.Join("testdata", "hierarchies", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		hs[name] = h
	}
	ih, err := hierarchy.LoadFile("Diagnoses", filepath.Join("testdata", "hierarchies", "Diagnoses.csv"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := query.LoadFile(filepath.Join("testdata", "workload.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return ds, hs, ih, w
}

func TestTestdataLoads(t *testing.T) {
	ds, hs, ih, w := loadTestdata(t)
	if ds.Len() != 20 {
		t.Errorf("patients = %d", ds.Len())
	}
	if ds.TransName != "Diagnoses" {
		t.Errorf("transaction attribute = %q", ds.TransName)
	}
	if w.Len() != 5 {
		t.Errorf("workload = %d queries", w.Len())
	}
	// Hierarchies must cover the data exactly.
	for i, a := range ds.Attrs {
		for _, v := range ds.Domain(i) {
			if !hs[a.Name].Contains(v) {
				t.Errorf("hierarchy %s misses %q", a.Name, v)
			}
		}
	}
	for _, it := range ds.ItemDomain() {
		if !ih.Contains(it) {
			t.Errorf("item hierarchy misses %q", it)
		}
	}
	if hs["Age"].Height() != 3 || ih.Height() != 2 {
		t.Errorf("heights: Age=%d Diagnoses=%d", hs["Age"].Height(), ih.Height())
	}
}

func TestTestdataRTAnonymization(t *testing.T) {
	ds, hs, ih, w := loadTestdata(t)
	res := engine.Run(ds, engine.Config{
		Mode: engine.RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: 4, M: 2, Delta: 0.5,
		Hierarchies: hs, ItemHierarchy: ih, Workload: w,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	qis, err := ds.QIIndices(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := privacy.CheckRT(res.Anonymized(), qis, 4, 2); !rep.Holds() {
		t.Fatalf("privacy violated on sample data: %+v", rep)
	}
	if res.Indicators.ARE < 0 {
		t.Errorf("ARE = %v", res.Indicators.ARE)
	}
}

func TestTestdataCOATPolicies(t *testing.T) {
	ds, _, _, _ := loadTestdata(t)
	priv, err := policy.LoadPrivacyFile(filepath.Join("testdata", "privacy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	util, err := policy.LoadUtilityFile(filepath.Join("testdata", "utility.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pol := &policy.Policy{Privacy: priv, Utility: util}
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
	res := engine.Run(ds, engine.Config{
		Mode: engine.Transactional, Algorithm: "coat", K: 3,
		Policy: pol,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestTestdataWorkloadExactCounts(t *testing.T) {
	ds, _, _, w := loadTestdata(t)
	// Hand-checked counts on the 20-patient file.
	want := []float64{3, 6, 5, 3, 6}
	for i := range w.Queries {
		got, err := w.Queries[i].CountExact(ds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("query %d (%s): count %v, want %v", i, w.Queries[i].String(), got, want[i])
		}
	}
}
