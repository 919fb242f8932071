package generalize

import (
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
