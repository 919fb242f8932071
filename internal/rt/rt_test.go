package rt

import (
	"bytes"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/metrics"
	"secreta/internal/privacy"
)

func rtData(t testing.TB, n int, seed int64) (*dataset.Dataset, generalize.Set, *hierarchy.Hierarchy) {
	t.Helper()
	ds := gen.Census(gen.Config{Records: n, Items: 20, Seed: seed})
	hs, err := gen.Hierarchies(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds, hs, ih
}

func baseOpts(hs generalize.Set, ih *hierarchy.Hierarchy) Options {
	return Options{
		K: 4, M: 2, Delta: 0.3,
		Hierarchies:   hs,
		ItemHierarchy: ih,
		RelAlgo:       "cluster",
		TransAlgo:     "apriori",
		Flavor:        RMerge,
	}
}

func TestAnonymizeEnforcesRTPrivacy(t *testing.T) {
	ds, hs, ih := rtData(t, 150, 1)
	qis, _ := ds.QIIndices(nil)
	for _, flavor := range []Flavor{RMerge, TMerge, RTMerge} {
		opts := baseOpts(hs, ih)
		opts.Flavor = flavor
		res, err := Anonymize(ds, opts)
		if err != nil {
			t.Fatalf("%s: %v", flavor, err)
		}
		rep := privacy.CheckRT(res.Anonymized.Materialize(), qis, opts.K, opts.M)
		if !rep.Holds() {
			t.Errorf("%s: (k,k^m)-anonymity violated: %+v", flavor, rep)
		}
		if res.Clusters <= 0 {
			t.Errorf("%s: clusters = %d", flavor, res.Clusters)
		}
		if len(res.Phases) < 3 {
			t.Errorf("%s: phases = %v", flavor, res.Phases)
		}
	}
}

func TestAllTwentyCombinations(t *testing.T) {
	if testing.Short() {
		t.Skip("20 combinations are slow")
	}
	ds, hs, ih := rtData(t, 90, 2)
	qis, _ := ds.QIIndices(nil)
	for _, rel := range RelationalAlgos {
		for _, tra := range TransactionAlgos {
			opts := baseOpts(hs, ih)
			opts.RelAlgo, opts.TransAlgo = rel, tra
			opts.K, opts.M = 3, 2
			res, err := Anonymize(ds, opts)
			if err != nil {
				t.Errorf("%s+%s: %v", rel, tra, err)
				continue
			}
			rep := privacy.CheckRT(res.Anonymized.Materialize(), qis, opts.K, opts.M)
			if !rep.Holds() {
				t.Errorf("%s+%s: privacy violated: %+v", rel, tra, rep)
			}
		}
	}
}

func TestDeltaZeroNeverMerges(t *testing.T) {
	ds, hs, ih := rtData(t, 120, 3)
	opts := baseOpts(hs, ih)
	opts.Delta = 0
	// delta=0 admits only free merges (identical signatures cannot occur
	// across distinct classes, so no merges at all).
	res, err := Anonymize(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merges != 0 {
		t.Errorf("delta=0 performed %d merges", res.Merges)
	}
}

func TestLargeDeltaMergesMore(t *testing.T) {
	ds, hs, ih := rtData(t, 120, 4)
	low := baseOpts(hs, ih)
	low.Delta = 0
	high := baseOpts(hs, ih)
	high.Delta = 1.0
	resLow, err := Anonymize(ds, low)
	if err != nil {
		t.Fatal(err)
	}
	resHigh, err := Anonymize(ds, high)
	if err != nil {
		t.Fatal(err)
	}
	if resHigh.Merges < resLow.Merges {
		t.Errorf("merges: delta=1 %d < delta=0 %d", resHigh.Merges, resLow.Merges)
	}
	// More merging must reduce transaction-side information loss.
	_, ih2 := metricsPair(t, ds, resLow.Anonymized, resHigh.Anonymized, ih)
	_ = ih2
}

func metricsPair(t testing.TB, orig *dataset.Dataset, a, b *dataset.Indexed, ih *hierarchy.Hierarchy) (float64, float64) {
	t.Helper()
	ga, err := metrics.TransactionGCP(orig, a, ih)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := metrics.TransactionGCP(orig, b, ih)
	if err != nil {
		t.Fatal(err)
	}
	if gb > ga+0.10 {
		t.Errorf("transaction loss grew with delta: %.4f -> %.4f", ga, gb)
	}
	return ga, gb
}

func TestRecordAlignmentAndCoverage(t *testing.T) {
	ds, hs, ih := rtData(t, 100, 5)
	res, err := Anonymize(ds, baseOpts(hs, ih))
	if err != nil {
		t.Fatal(err)
	}
	if res.Anonymized.Materialize().Len() != ds.Len() {
		t.Fatalf("record count changed")
	}
	qis, _ := ds.QIIndices(nil)
	for r := range ds.Records {
		for _, q := range qis {
			h := hs[ds.Attrs[q].Name]
			if !h.Covers(res.Anonymized.Materialize().Records[r].Values[q], ds.Records[r].Values[q]) {
				t.Fatalf("record %d: %q does not cover %q", r,
					res.Anonymized.Materialize().Records[r].Values[q], ds.Records[r].Values[q])
			}
		}
	}
}

func TestOptionErrors(t *testing.T) {
	ds, hs, ih := rtData(t, 60, 6)
	rel := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	if _, err := Anonymize(rel, baseOpts(hs, ih)); err == nil {
		t.Error("relational-only dataset accepted")
	}
	bad := baseOpts(hs, ih)
	bad.M = 0
	if _, err := Anonymize(ds, bad); err == nil {
		t.Error("m=0 accepted")
	}
	bad = baseOpts(hs, ih)
	bad.Delta = -1
	if _, err := Anonymize(ds, bad); err == nil {
		t.Error("negative delta accepted")
	}
	bad = baseOpts(hs, ih)
	bad.RelAlgo = "nope"
	if _, err := Anonymize(ds, bad); err == nil {
		t.Error("unknown relational algorithm accepted")
	}
	bad = baseOpts(hs, ih)
	bad.TransAlgo = "nope"
	if _, err := Anonymize(ds, bad); err == nil {
		t.Error("unknown transaction algorithm accepted")
	}
}

// TestAlgorithmsLists pins the algorithm tables: the paper's four
// relational and five transaction algorithms, each resolving to a runner,
// and their 20 RT combinations.
func TestAlgorithmsLists(t *testing.T) {
	if len(RelationalAlgos) != 4 {
		t.Errorf("want 4 relational algorithms, got %v", RelationalAlgos)
	}
	if len(TransactionAlgos) != 5 {
		t.Errorf("want 5 transaction algorithms, got %v", TransactionAlgos)
	}
	combos := make(map[string]bool)
	for _, r := range RelationalAlgos {
		if run, err := RelationalByName(" " + strings.ToUpper(r)); run == nil || err != nil {
			t.Errorf("relational %q: %v", r, err)
		}
		for _, tr := range TransactionAlgos {
			combos[r+"+"+tr] = true
		}
	}
	for _, tr := range TransactionAlgos {
		if run, err := TransactionByName(strings.ToUpper(tr) + " "); run == nil || err != nil {
			t.Errorf("transaction %q: %v", tr, err)
		}
	}
	if len(combos) != 20 {
		t.Errorf("want the paper's 20 combinations, got %d", len(combos))
	}
	if _, err := RelationalByName("apriori"); err == nil {
		t.Error("transaction algorithm resolved as relational")
	}
	if _, err := TransactionByName("rho"); err == nil {
		t.Error("extension resolved as an RT transaction algorithm")
	}
}

func TestParseFlavor(t *testing.T) {
	for s, want := range map[string]Flavor{
		"Rmerger": RMerge, "tmerge": TMerge, "RT": RTMerge,
	} {
		got, err := ParseFlavor(s)
		if err != nil || got != want {
			t.Errorf("ParseFlavor(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFlavor("bogus"); err == nil {
		t.Error("bogus flavor accepted")
	}
	if RMerge.String() != "Rmerger" || TMerge.String() != "Tmerger" || RTMerge.String() != "RTmerger" {
		t.Error("flavor names wrong")
	}
}

func TestCOATCombination(t *testing.T) {
	ds, hs, ih := rtData(t, 120, 7)
	qis, _ := ds.QIIndices(nil)
	opts := baseOpts(hs, ih)
	opts.TransAlgo = "coat"
	res, err := Anonymize(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := privacy.CheckRT(res.Anonymized.Materialize(), qis, opts.K, opts.M)
	if !rep.Holds() {
		t.Errorf("coat combination violated privacy: %+v", rep)
	}
}

func TestUngatedMergesCascadeFurther(t *testing.T) {
	ds, hs, ih := rtData(t, 150, 8)
	gated := baseOpts(hs, ih)
	gated.Delta = 0.15
	ungated := gated
	ungated.UngatedMerges = true
	resGated, err := Anonymize(ds, gated)
	if err != nil {
		t.Fatal(err)
	}
	resUngated, err := Anonymize(ds, ungated)
	if err != nil {
		t.Fatal(err)
	}
	if resUngated.Merges < resGated.Merges {
		t.Errorf("ungated merges %d < gated %d", resUngated.Merges, resGated.Merges)
	}
	// Both must still satisfy the privacy model.
	qis, _ := ds.QIIndices(nil)
	for name, res := range map[string]*Result{"gated": resGated, "ungated": resUngated} {
		if rep := privacy.CheckRT(res.Anonymized.Materialize(), qis, gated.K, gated.M); !rep.Holds() {
			t.Errorf("%s: privacy violated: %+v", name, rep)
		}
	}
}

// TestForeignInterningIgnored hands Anonymize the interning of another
// dataset with as many records but another schema and one shared basket,
// which reads as k^m-anonymous everywhere: a run must not read it as its
// own, so it publishes exactly what it publishes with no interning
// supplied.
func TestForeignInterningIgnored(t *testing.T) {
	ds, hs, ih := rtData(t, 200, 17)
	other := ds.Clone()
	if err := other.DeleteAttribute(other.Attrs[0].Name); err != nil {
		t.Fatal(err)
	}
	for r := range other.Records {
		other.Records[r].Items = []string{"x"}
	}
	opts := baseOpts(hs, ih)
	want, err := Anonymize(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Interned = dataset.Intern(other)
	got, err := Anonymize(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := encodeResult(t, want), encodeResult(t, got); !bytes.Equal(w, g) {
		t.Fatalf("a foreign interning changed the output:\n got: %s\nwant: %s", tail(g), tail(w))
	}
}
