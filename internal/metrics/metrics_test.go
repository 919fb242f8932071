package metrics

import (
	"math"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
)

func hset(t testing.TB) (generalize.Set, *hierarchy.Hierarchy) {
	t.Helper()
	age, err := hierarchy.NewBuilder("Age").
		Add("Any", "[20-29]").Add("Any", "[30-49]").
		Add("[20-29]", "25").Add("[20-29]", "27").
		Add("[30-49]", "31").Add("[30-49]", "47").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	items, err := hierarchy.NewBuilder("Items").
		Add("All", "ab").Add("All", "cd").
		Add("ab", "a").Add("ab", "b").
		Add("cd", "c").Add("cd", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return generalize.Set{"Age": age}, items
}

func data(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{{Name: "Age", Kind: dataset.Numeric}}, "T")
	for _, r := range []dataset.Record{
		{Values: []string{"25"}, Items: []string{"a", "c"}},
		{Values: []string{"27"}, Items: []string{"a"}},
		{Values: []string{"31"}, Items: []string{"b"}},
		{Values: []string{"47"}, Items: []string{"d"}},
	} {
		if err := ds.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestGCP(t *testing.T) {
	hs, _ := hset(t)
	ds := data(t)
	g, err := GCP(ds, hs, []int{0})
	if err != nil || g != 0 {
		t.Errorf("GCP(original) = %v, %v", g, err)
	}
	anon, err := generalize.FullDomain(ds, hs, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	g, err = GCP(anon, hs, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Every cell is a 2-leaf node out of 4 leaves: NCP = 1/3.
	if math.Abs(g-1.0/3) > 1e-9 {
		t.Errorf("GCP(level 1) = %v, want 1/3", g)
	}
	anon, err = generalize.FullDomain(ds, hs, []int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	g, _ = GCP(anon, hs, []int{0})
	if g != 1 {
		t.Errorf("GCP(root) = %v, want 1", g)
	}
}

func TestGCPSuppressedAndUnknown(t *testing.T) {
	hs, _ := hset(t)
	ds := data(t)
	generalize.SuppressRecord(ds, []int{0}, 0)
	ds.Records[1].Values[0] = "weird-label"
	g, err := GCP(ds, hs, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Two full-loss cells + two zero-loss cells.
	if math.Abs(g-0.5) > 1e-9 {
		t.Errorf("GCP = %v, want 0.5", g)
	}
}

func TestGCPEmpty(t *testing.T) {
	hs, _ := hset(t)
	ds := dataset.New([]dataset.Attribute{{Name: "Age"}}, "")
	if g, err := GCP(ds, hs, []int{0}); err != nil || g != 0 {
		t.Errorf("GCP(empty) = %v, %v", g, err)
	}
}

func TestTransactionGCP(t *testing.T) {
	_, itemH := hset(t)
	ds := data(t)
	same, err := TransactionGCP(ds, dataset.Intern(ds), itemH)
	if err != nil || same != 0 {
		t.Errorf("TransactionGCP(identity) = %v, %v", same, err)
	}
	cut := hierarchy.NewCut(itemH)
	if err := cut.Specialize("All"); err != nil {
		t.Fatal(err)
	}
	anon, err := applyItemCut(ds, cut)
	if err != nil {
		t.Fatal(err)
	}
	g, err := TransactionGCP(ds, dataset.Intern(anon), itemH)
	if err != nil {
		t.Fatal(err)
	}
	// Every occurrence maps to a 2-leaf node of a 4-leaf domain: NCP=1/3.
	if math.Abs(g-1.0/3) > 1e-9 {
		t.Errorf("TransactionGCP = %v, want 1/3", g)
	}
	// Suppression counts as total loss.
	anon2 := ds.Clone()
	anon2.Records[0].Items = nil
	g, err = TransactionGCP(ds, dataset.Intern(anon2), itemH)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.4) > 1e-9 { // 2 of 5 occurrences lost
		t.Errorf("TransactionGCP(suppressed) = %v, want 0.4", g)
	}
	if _, err := TransactionGCP(ds, dataset.Intern(dataset.New(nil, "T")), itemH); err == nil {
		t.Error("misaligned datasets accepted")
	}
}

func TestUL(t *testing.T) {
	ds := data(t)
	// Identity mapping: no loss.
	anon := ds.Clone()
	ul, err := UL(ds, anon, map[string]string{"a": "a"}, nil)
	if err != nil || ul != 0 {
		t.Errorf("UL(identity) = %v, %v", ul, err)
	}
	// Merge a,b into g(ab): support of g(ab) in anon counts.
	mapping := map[string]string{"a": "(ab)", "b": "(ab)"}
	anon = applyItemMapping(ds, mapping)
	ul, err = UL(ds, anon, mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (2^2-1)*support(3) / ((2^4-1)*4) = 9/60
	if math.Abs(ul-9.0/60) > 1e-9 {
		t.Errorf("UL = %v, want %v", ul, 9.0/60)
	}
	// Suppression: item d dropped, charged its original support.
	mapping = map[string]string{"d": ""}
	anon = applyItemMapping(ds, mapping)
	ul, err = UL(ds, anon, mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ul-1.0/60) > 1e-9 {
		t.Errorf("UL(suppress) = %v, want %v", ul, 1.0/60)
	}
	// Weights scale the loss.
	mapping = map[string]string{"a": "(ab)", "b": "(ab)"}
	anon = applyItemMapping(ds, mapping)
	ul2, err := UL(ds, anon, mapping, map[string]float64{"(ab)": 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ul2-2*9.0/60) > 1e-9 {
		t.Errorf("UL(weighted) = %v", ul2)
	}
}

func TestDiscernibilityAndCAVG(t *testing.T) {
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	for _, v := range []string{"x", "x", "y", "y", "y"} {
		if err := ds.AddRecord(dataset.Record{Values: []string{v}}); err != nil {
			t.Fatal(err)
		}
	}
	classes := func(ds *dataset.Dataset) []privacy.Class { return privacy.Partition(ds, []int{0}) }
	if d := DiscernibilityClasses(ds.Len(), classes(ds)); d != 4+9 {
		t.Errorf("Discernibility = %v, want 13", d)
	}
	if c := CAVGClasses(classes(ds), 2); math.Abs(c-5.0/2/2) > 1e-9 {
		t.Errorf("CAVG = %v, want 1.25", c)
	}
	generalize.SuppressRecord(ds, []int{0}, 0)
	// 1 suppressed record charged n=5; classes x(1), y(3).
	if d := DiscernibilityClasses(ds.Len(), classes(ds)); d != 1+9+5 {
		t.Errorf("Discernibility with suppression = %v, want 15", d)
	}
	if s := SuppressionRatioClasses(ds.Len(), classes(ds)); math.Abs(s-0.2) > 1e-9 {
		t.Errorf("SuppressionRatio = %v", s)
	}
	empty := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	if DiscernibilityClasses(0, classes(empty)) != 0 || CAVGClasses(classes(empty), 2) != 0 || SuppressionRatioClasses(0, classes(empty)) != 0 {
		t.Error("empty dataset metrics non-zero")
	}
}

func TestItemFrequencyError(t *testing.T) {
	_, itemH := hset(t)
	ds := data(t)
	// Identity: zero error everywhere.
	for _, ve := range ItemFrequencyError(ds, ds, itemH) {
		if ve.RelError != 0 {
			t.Errorf("identity error for %q = %v", ve.Value, ve.RelError)
		}
	}
	cut := hierarchy.NewCut(itemH)
	if err := cut.Specialize("All"); err != nil {
		t.Fatal(err)
	}
	anon, err := applyItemCut(ds, cut)
	if err != nil {
		t.Fatal(err)
	}
	ves := ItemFrequencyError(ds, anon, itemH)
	// Original: a=2, b=1, c=1, d=1. Anonymized: ab appears in 3 records,
	// cd in 2. Estimates: a=b=1.5, c=d=1.
	want := map[string]float64{"a": 1.5, "b": 1.5, "c": 1, "d": 1}
	for _, ve := range ves {
		if math.Abs(ve.Estimate-want[ve.Value]) > 1e-9 {
			t.Errorf("estimate[%q] = %v, want %v", ve.Value, ve.Estimate, want[ve.Value])
		}
	}
}

func TestAttributeFrequencyError(t *testing.T) {
	hs, _ := hset(t)
	ds := data(t)
	anon, err := generalize.FullDomain(ds, hs, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	ves := AttributeFrequencyError(ds, anon, hs["Age"], 0)
	// [20-29] has 2 records spread over leaves 25,27 -> 1 each; original
	// 25:1, 27:1 -> zero error. Same for [30-49].
	for _, ve := range ves {
		if ve.RelError != 0 {
			t.Errorf("error for %q = %v (est %v, orig %v)", ve.Value, ve.RelError, ve.Estimate, ve.Original)
		}
	}
	// Suppressed cells contribute no estimate.
	generalize.SuppressRecord(anon, []int{0}, 0)
	ves = AttributeFrequencyError(ds, anon, hs["Age"], 0)
	var est25 float64
	for _, ve := range ves {
		if ve.Value == "25" {
			est25 = ve.Estimate
		}
	}
	if math.Abs(est25-0.5) > 1e-9 {
		t.Errorf("est 25 after suppression = %v, want 0.5", est25)
	}
}

func TestGeneralizedFrequencies(t *testing.T) {
	hs, _ := hset(t)
	ds := data(t)
	anon, err := generalize.FullDomain(ds, hs, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	fr := GeneralizedFrequencies(anon, 0)
	if len(fr) != 2 || fr[0].Count != 2 || fr[1].Count != 2 {
		t.Errorf("frequencies = %v", fr)
	}
}
