// End-to-end integration tests: the full pipeline a SECRETA user walks
// through — generate data, derive hierarchies and workloads, persist
// everything to disk, reload, anonymize through the engine, evaluate,
// compare, and export — crossing every module boundary in one flow.
package secreta

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/export"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/privacy"
	"secreta/internal/query"
	"secreta/internal/rt"
)

func TestFullPipelineThroughDisk(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist the dataset (CSV and JSON).
	orig := gen.Census(gen.Config{Records: 180, Items: 16, Seed: 77})
	csvPath := filepath.Join(dir, "data.csv")
	if err := orig.SaveFile(csvPath, dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "data.json")
	if err := orig.SaveJSONFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadFile(csvPath, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dsJSON, err := dataset.LoadJSONFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != orig.Len() || dsJSON.Len() != orig.Len() {
		t.Fatal("reloaded datasets lost records")
	}

	// 2. Derive hierarchies, persist, reload.
	hs, err := gen.Hierarchies(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := make(generalize.Set)
	for name, h := range hs {
		p := filepath.Join(dir, name+".csv")
		if err := h.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		back, err := hierarchy.LoadFile(name, p)
		if err != nil {
			t.Fatal(err)
		}
		reloaded[name] = back
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	ihPath := filepath.Join(dir, "items.csv")
	if err := ih.SaveFile(ihPath); err != nil {
		t.Fatal(err)
	}
	ih, err = hierarchy.LoadFile(ds.TransName, ihPath)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Generate and persist a workload; reload it.
	w, err := query.Generate(ds, query.GenOptions{Queries: 25, Dims: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wPath := filepath.Join(dir, "workload.txt")
	if err := w.SaveFile(wPath); err != nil {
		t.Fatal(err)
	}
	w, err = query.LoadFile(wPath)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Policies: generate, persist, reload.
	pol := &policy.Policy{
		Privacy: policy.PrivacyFrequent(ds, 2, 2),
		Utility: policy.UtilityFromHierarchy(ih, 1),
	}
	pp := filepath.Join(dir, "privacy.txt")
	pf, err := os.Create(pp)
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.WritePrivacy(pf, pol.Privacy); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	if pol.Privacy, err = policy.LoadPrivacyFile(pp); err != nil {
		t.Fatal(err)
	}

	// 5. Evaluation mode over the reloaded artifacts.
	cfg := engine.Config{
		Mode: engine.RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: 5, M: 2, Delta: 0.2,
		Hierarchies: reloaded, ItemHierarchy: ih, Workload: w,
	}
	res := engine.Run(ds, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	qis, err := ds.QIIndices(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := privacy.CheckRT(res.Anonymized(), qis, 5, 2); !rep.Holds() {
		t.Fatalf("pipeline output violates privacy: %+v", rep)
	}
	if res.Indicators.ARE < 0 {
		t.Fatalf("ARE = %v", res.Indicators.ARE)
	}

	// 6. Persist the anonymized dataset and verify it reloads as
	// (k,k^m)-anonymous: the export is faithful.
	anonPath := filepath.Join(dir, "anon.csv")
	if err := res.Anonymized().SaveFile(anonPath, dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	anon, err := dataset.LoadFile(anonPath, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := privacy.CheckRT(anon, qis, 5, 2); !rep.Holds() {
		t.Fatalf("reloaded anonymized dataset violates privacy: %+v", rep)
	}

	// 7. Comparison mode + series export.
	series, err := experiment.Compare(ds, []engine.Config{cfg}, experiment.Sweep{
		Param: "k", Start: 3, End: 7, Step: 2,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	seriesPath := filepath.Join(dir, "series.csv")
	if err := export.SeriesCSVFile(seriesPath, series); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(b), "\n"); rows != 4 { // header + 3 points
		t.Fatalf("series CSV rows = %d", rows)
	}
	resultsPath := filepath.Join(dir, "results.json")
	if err := export.ResultsJSONFile(resultsPath, []*engine.Result{res}); err != nil {
		t.Fatal(err)
	}
}

// TestExtensionRhoThroughEngine runs the rho-uncertainty extension through
// the engine facade, end to end.
func TestExtensionRhoThroughEngine(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 200, Items: 14, Seed: 83})
	h := ds.ItemHistogram()
	sens := []string{h[0].Value, h[1].Value}
	res := engine.Run(ds, engine.Config{
		Mode: engine.Transactional, Algorithm: "rho",
		K: 1, M: 2, Rho: 0.4, Sensitive: sens,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Anonymized().Len() != ds.Len() {
		t.Fatal("record count changed")
	}
}

// TestUtilityCrossoverClusterVsIncognito pins the headline comparison shape
// at pipeline level: at low-to-moderate k (relative to n), local recoding
// preserves at least as much utility as full-domain recoding. At k near
// n/8 and beyond the greedy clusters degrade and the ordering can flip,
// which is why the check stops at k=10 for n=240.
func TestUtilityCrossoverClusterVsIncognito(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 240, Items: 0, Seed: 91})
	hs, err := gen.Hierarchies(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5, 10} {
		var gcp [2]float64
		for i, algo := range []string{"cluster", "incognito"} {
			res := engine.Run(ds, engine.Config{
				Mode: engine.Relational, Algorithm: algo, K: k, Hierarchies: hs,
			})
			if res.Err != nil {
				t.Fatalf("%s k=%d: %v", algo, k, res.Err)
			}
			gcp[i] = res.Indicators.GCP
		}
		if gcp[0] > gcp[1]+0.05 {
			t.Errorf("k=%d: cluster GCP %.4f worse than incognito %.4f", k, gcp[0], gcp[1])
		}
	}
}
