package policy

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/hierarchy"
)

func data(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for _, items := range [][]string{
		{"a", "b"}, {"a", "b"}, {"a", "c"}, {"d"},
	} {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestValidate(t *testing.T) {
	p := &Policy{
		Privacy: []PrivacyConstraint{{Items: []string{"a", "b"}}},
		Utility: []UtilityConstraint{{Label: "u1", Items: []string{"a", "b"}}, {Label: "u2", Items: []string{"c"}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Policy{Privacy: []PrivacyConstraint{{}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty privacy constraint accepted")
	}
	bad = &Policy{Privacy: []PrivacyConstraint{{Items: []string{"b", "a"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted constraint accepted")
	}
	bad = &Policy{Privacy: []PrivacyConstraint{{Items: []string{"a", "a"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate item accepted")
	}
	bad = &Policy{Utility: []UtilityConstraint{{Label: "u", Items: []string{"a"}}, {Label: "v", Items: []string{"a"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("overlapping utility constraints accepted")
	}
	bad = &Policy{Utility: []UtilityConstraint{{Label: "u", Items: []string{"a"}}, {Label: "u", Items: []string{"b"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate utility label accepted")
	}
	bad = &Policy{Utility: []UtilityConstraint{{Label: "", Items: []string{"a"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty label accepted")
	}
}

func TestUtilityIndex(t *testing.T) {
	p := &Policy{Utility: []UtilityConstraint{
		{Label: "u1", Items: []string{"a", "b"}},
		{Label: "u2", Items: []string{"c"}},
	}}
	idx := p.UtilityIndex()
	if idx["a"] != 0 || idx["b"] != 0 || idx["c"] != 1 {
		t.Errorf("index = %v", idx)
	}
	if _, ok := idx["z"]; ok {
		t.Error("uncovered item indexed")
	}
}

func TestPrivacyAllItems(t *testing.T) {
	ds := data(t)
	cs := PrivacyAllItems(ds)
	if len(cs) != 4 {
		t.Fatalf("constraints = %v", cs)
	}
	if cs[0].Items[0] != "a" {
		t.Errorf("first = %v", cs[0])
	}
}

func TestPrivacyFrequent(t *testing.T) {
	ds := data(t)
	cs := PrivacyFrequent(ds, 2, 2)
	// Supports: a=3,b=2,c=1,d=1; {a,b}=2,{a,c}=1.
	want := [][]string{{"a"}, {"b"}, {"a", "b"}}
	if len(cs) != len(want) {
		t.Fatalf("constraints = %v", cs)
	}
	for i := range want {
		if !reflect.DeepEqual(cs[i].Items, want[i]) {
			t.Errorf("constraint %d = %v, want %v", i, cs[i].Items, want[i])
		}
	}
	// Defaults clamp bad parameters.
	if got := PrivacyFrequent(ds, 0, 0); len(got) == 0 {
		t.Error("clamped parameters yield nothing")
	}
}

func TestUtilityFromHierarchy(t *testing.T) {
	h, err := hierarchy.NewBuilder("T").
		Add("All", "ab").Add("All", "cd").
		Add("ab", "a").Add("ab", "b").
		Add("cd", "c").Add("cd", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	top := UtilityFromHierarchy(h, 0)
	if len(top) != 1 || len(top[0].Items) != 4 {
		t.Errorf("depth 0 = %v", top)
	}
	mid := UtilityFromHierarchy(h, 1)
	if len(mid) != 2 || !reflect.DeepEqual(mid[0].Items, []string{"a", "b"}) {
		t.Errorf("depth 1 = %v", mid)
	}
	leaf := UtilityFromHierarchy(h, 2)
	if len(leaf) != 4 {
		t.Errorf("depth 2 = %v", leaf)
	}
	p := &Policy{Utility: mid}
	if err := p.Validate(); err != nil {
		t.Errorf("hierarchy-derived policy invalid: %v", err)
	}
}

func TestUtilityTopAndSingletons(t *testing.T) {
	ds := data(t)
	top := UtilityTop(ds)
	if len(top) != 1 || len(top[0].Items) != 4 {
		t.Errorf("top = %v", top)
	}
	singles := UtilitySingletons(ds)
	if len(singles) != 4 || singles[0].Label != "a" {
		t.Errorf("singletons = %v", singles)
	}
	empty := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	if UtilityTop(empty) != nil {
		t.Error("top policy for itemless dataset")
	}
}

func TestPrivacyIO(t *testing.T) {
	in := "# attacker knowledge\nflu diabetes\nhypertension\n"
	cs, err := ReadPrivacy(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || !reflect.DeepEqual(cs[0].Items, []string{"diabetes", "flu"}) {
		t.Errorf("parsed = %v", cs)
	}
	var buf bytes.Buffer
	if err := WritePrivacy(&buf, cs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPrivacy(&buf)
	if err != nil || !reflect.DeepEqual(back, cs) {
		t.Errorf("round-trip = %v, %v", back, err)
	}
	if _, err := ReadPrivacy(strings.NewReader("")); err == nil {
		t.Error("empty privacy policy accepted")
	}
}

func TestUtilityIO(t *testing.T) {
	in := "respiratory: flu asthma\nmetabolic: diabetes\n"
	cs, err := ReadUtility(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Label != "respiratory" {
		t.Errorf("parsed = %v", cs)
	}
	var buf bytes.Buffer
	if err := WriteUtility(&buf, cs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUtility(&buf)
	if err != nil || !reflect.DeepEqual(back, cs) {
		t.Errorf("round-trip = %v, %v", back, err)
	}
	for _, bad := range []string{"", "no colon here\n", ": items\n", "label:\n"} {
		if _, err := ReadUtility(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadUtility(%q) accepted", bad)
		}
	}
}

// TestPrivacyFrequentMatchesReference pins PrivacyFrequent to the
// preserved map-of-joined-names implementation on generated data,
// including item names that are prefixes of one another, where joined
// keys and itemset order could disagree.
func TestPrivacyFrequentMatchesReference(t *testing.T) {
	var sets []*dataset.Dataset
	for _, seed := range []int64{1, 5} {
		sets = append(sets, gen.Census(gen.Config{Records: 300, Items: 25, MaxBasket: 6, Seed: seed}))
	}
	vocab := []string{"a", "a1", "a10", "ab", "a b", "b", "b1", "ba", "c"}
	for _, seed := range []int64{2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
		for r := 0; r < 60; r++ {
			items := make([]string, rng.Intn(6))
			for i := range items {
				items[i] = vocab[rng.Intn(len(vocab))]
			}
			if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
				t.Fatal(err)
			}
		}
		sets = append(sets, ds)
	}
	for i, ds := range sets {
		for _, minSup := range []int{0, 1, 2, 4, 9} {
			for _, maxSize := range []int{0, 1, 2, 3, 4} {
				got := PrivacyFrequent(ds, minSup, maxSize)
				want := referencePrivacyFrequent(ds, minSup, maxSize)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("dataset %d minSupport=%d maxSize=%d: %d constraints, want %d (or order diverged)",
						i, minSup, maxSize, len(got), len(want))
				}
			}
		}
	}
}

// TestPrivacyFrequentNULItem pins that an item name containing NUL stays
// one item: keying supports on joined names split "a\x00b" into a size-2
// constraint on two items the dataset does not contain.
func TestPrivacyFrequentNULItem(t *testing.T) {
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for _, items := range [][]string{{"a\x00b"}, {"a\x00b"}, {"c"}} {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	got := PrivacyFrequent(ds, 1, 1)
	want := []PrivacyConstraint{{Items: []string{"a\x00b"}}, {Items: []string{"c"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PrivacyFrequent = %q, want %q", got, want)
	}
}
