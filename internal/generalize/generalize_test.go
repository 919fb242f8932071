package generalize

import (
	"reflect"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
)

func testHierarchies(t testing.TB) Set {
	t.Helper()
	age, err := hierarchy.NewBuilder("Age").
		Add("Any", "[20-29]").Add("Any", "[30-49]").
		Add("[20-29]", "25").Add("[20-29]", "27").
		Add("[30-49]", "31").Add("[30-49]", "47").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	gender, err := hierarchy.NewBuilder("Gender").
		Add("Person", "M").Add("Person", "F").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return Set{"Age": age, "Gender": gender}
}

func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Gender", Kind: dataset.Categorical},
	}, "Items")
	for _, r := range []dataset.Record{
		{Values: []string{"25", "M"}, Items: []string{"a", "b"}},
		{Values: []string{"27", "F"}, Items: []string{"a"}},
		{Values: []string{"31", "M"}, Items: []string{"c"}},
		{Values: []string{"47", "F"}, Items: []string{"b", "c"}},
	} {
		if err := ds.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestFullDomain(t *testing.T) {
	ds := testData(t)
	hs := testHierarchies(t)
	out, err := FullDomain(ds, hs, []int{0, 1}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Records[0].Values[0] != "[20-29]" || out.Records[0].Values[1] != "M" {
		t.Errorf("record 0 = %v", out.Records[0].Values)
	}
	if out.Records[3].Values[0] != "[30-49]" {
		t.Errorf("record 3 = %v", out.Records[3].Values)
	}
	// Original untouched.
	if ds.Records[0].Values[0] != "25" {
		t.Error("FullDomain mutated input")
	}
	// Level beyond height caps at root.
	out, err = FullDomain(ds, hs, []int{0, 1}, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Records[0].Values[0] != "Any" || out.Records[0].Values[1] != "Person" {
		t.Errorf("capped = %v", out.Records[0].Values)
	}
}

func TestFullDomainErrors(t *testing.T) {
	ds := testData(t)
	hs := testHierarchies(t)
	if _, err := FullDomain(ds, hs, []int{0, 1}, []int{1}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := FullDomain(ds, Set{}, []int{0}, []int{1}); err == nil {
		t.Error("missing hierarchy accepted")
	}
	bad := testData(t)
	bad.Records[0].Values[0] = "999"
	if _, err := FullDomain(bad, hs, []int{0}, []int{1}); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestSuppression(t *testing.T) {
	ds := testData(t)
	qis := []int{0, 1}
	SuppressRecord(ds, qis, 1)
	for _, q := range qis {
		if ds.Records[1].Values[q] != Suppressed || ds.Records[0].Values[q] == Suppressed {
			t.Errorf("QI %d after suppressing record 1: %q, %q", q, ds.Records[0].Values[q], ds.Records[1].Values[q])
		}
	}
	if ds.Records[1].Items != nil {
		t.Error("items survived suppression")
	}
}

func TestMapItems(t *testing.T) {
	hs := testHierarchies(t)
	items, err := hierarchy.NewBuilder("Items").
		Add("All", "ab").Add("All", "c").
		Add("ab", "a").Add("ab", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = hs
	cut := hierarchy.NewCut(items)
	if err := cut.Specialize("All"); err != nil {
		t.Fatal(err)
	}
	got, err := MapItems([]string{"a", "b", "c"}, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"ab", "c"}) {
		t.Errorf("MapItems = %v", got)
	}
	empty, err := MapItems(nil, cut)
	if err != nil || empty != nil {
		t.Errorf("MapItems(nil) = %v, %v", empty, err)
	}
}

func TestApplyItemCut(t *testing.T) {
	ds := testData(t)
	items, err := hierarchy.NewBuilder("Items").
		Add("All", "ab").Add("All", "c").
		Add("ab", "a").Add("ab", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cut := hierarchy.NewCut(items)
	if err := cut.Specialize("All"); err != nil {
		t.Fatal(err)
	}
	out, err := ApplyItemCut(ds, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Records[0].Items, []string{"ab"}) {
		t.Errorf("record 0 items = %v", out.Records[0].Items)
	}
	if !reflect.DeepEqual(out.Records[3].Items, []string{"ab", "c"}) {
		t.Errorf("record 3 items = %v", out.Records[3].Items)
	}
	if !reflect.DeepEqual(ds.Records[0].Items, []string{"a", "b"}) {
		t.Error("ApplyItemCut mutated input")
	}
}

func TestApplyItemMapping(t *testing.T) {
	ds := testData(t)
	out := ApplyItemMapping(ds, map[string]string{"a": "(a,b)", "b": "(a,b)", "c": ""})
	if !reflect.DeepEqual(out.Records[0].Items, []string{"(a,b)"}) {
		t.Errorf("record 0 = %v", out.Records[0].Items)
	}
	if out.Records[2].Items != nil {
		t.Errorf("suppressed item survived: %v", out.Records[2].Items)
	}
	if !reflect.DeepEqual(out.Records[3].Items, []string{"(a,b)"}) {
		t.Errorf("record 3 = %v", out.Records[3].Items)
	}
}
