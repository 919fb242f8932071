package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Dataset {
	ds := New([]Attribute{
		{Name: "Age", Kind: Numeric},
		{Name: "Gender", Kind: Categorical},
	}, "Items")
	recs := []Record{
		{Values: []string{"25", "M"}, Items: []string{"b", "a"}},
		{Values: []string{"31", "F"}, Items: []string{"a"}},
		{Values: []string{"25", "F"}, Items: []string{"c", "a", "c"}},
		{Values: []string{"47", "M"}, Items: nil},
	}
	for _, r := range recs {
		if err := ds.AddRecord(r); err != nil {
			panic(err)
		}
	}
	return ds
}

func TestAddRecordNormalizesItems(t *testing.T) {
	ds := sample()
	if got := ds.Records[0].Items; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("items not sorted: %v", got)
	}
	if got := ds.Records[2].Items; !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("items not deduplicated: %v", got)
	}
}

func TestAddRecordArityMismatch(t *testing.T) {
	ds := sample()
	if err := ds.AddRecord(Record{Values: []string{"1"}}); err == nil {
		t.Fatal("want arity error, got nil")
	}
}

func TestAddRecordItemsWithoutTransaction(t *testing.T) {
	ds := New([]Attribute{{Name: "A"}}, "")
	if err := ds.AddRecord(Record{Values: []string{"x"}, Items: []string{"i"}}); err == nil {
		t.Fatal("want error for items without transaction attribute")
	}
}

func TestAttrIndexAndNames(t *testing.T) {
	ds := sample()
	if got := ds.AttrIndex("Gender"); got != 1 {
		t.Errorf("AttrIndex(Gender) = %d, want 1", got)
	}
	if got := ds.AttrIndex("missing"); got != -1 {
		t.Errorf("AttrIndex(missing) = %d, want -1", got)
	}
	if got := ds.AttrNames(); !reflect.DeepEqual(got, []string{"Age", "Gender"}) {
		t.Errorf("AttrNames = %v", got)
	}
}

func TestQIIndices(t *testing.T) {
	ds := sample()
	all, err := ds.QIIndices(nil)
	if err != nil || !reflect.DeepEqual(all, []int{0, 1}) {
		t.Errorf("QIIndices(nil) = %v, %v", all, err)
	}
	one, err := ds.QIIndices([]string{"Gender"})
	if err != nil || !reflect.DeepEqual(one, []int{1}) {
		t.Errorf("QIIndices(Gender) = %v, %v", one, err)
	}
	if _, err := ds.QIIndices([]string{"nope"}); err == nil {
		t.Error("want error for unknown QI name")
	}
}

func TestDomainNumericSort(t *testing.T) {
	ds := sample()
	if got := ds.Domain(0); !reflect.DeepEqual(got, []string{"25", "31", "47"}) {
		t.Errorf("numeric domain = %v", got)
	}
	if got := ds.Domain(1); !reflect.DeepEqual(got, []string{"F", "M"}) {
		t.Errorf("categorical domain = %v", got)
	}
}

func TestItemDomain(t *testing.T) {
	ds := sample()
	if got := ds.ItemDomain(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("ItemDomain = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	ds := sample()
	cp := ds.Clone()
	cp.Records[0].Values[0] = "99"
	cp.Records[0].Items[0] = "z"
	if ds.Records[0].Values[0] != "25" || ds.Records[0].Items[0] != "a" {
		t.Error("Clone shares backing arrays with original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := sample()
	if err := ds.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	ds.Records[0].Items = []string{"b", "a"}
	if err := ds.Validate(); err == nil {
		t.Error("unsorted items not caught")
	}
	ds = sample()
	ds.Records[1].Values = ds.Records[1].Values[:1]
	if err := ds.Validate(); err == nil {
		t.Error("arity corruption not caught")
	}
}

func TestValidateDuplicateAttr(t *testing.T) {
	ds := New([]Attribute{{Name: "A"}, {Name: "A"}}, "")
	if err := ds.Validate(); err == nil {
		t.Error("duplicate attribute names not caught")
	}
	ds = New([]Attribute{{Name: "A"}}, "A")
	if err := ds.Validate(); err == nil {
		t.Error("transaction/relational name collision not caught")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := sample()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf, Options{}); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, Options{})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(ds.Attrs, back.Attrs) || ds.TransName != back.TransName {
		t.Errorf("schema mismatch after round-trip: %+v vs %+v", ds.Attrs, back.Attrs)
	}
	if !reflect.DeepEqual(ds.Records, back.Records) {
		t.Errorf("records mismatch after round-trip")
	}
}

func TestReadCSVDetectKinds(t *testing.T) {
	in := "Age,City\n25,Athens\n31,Patras\n"
	ds, err := ReadCSV(strings.NewReader(in), Options{DetectKinds: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attrs[0].Kind != Numeric || ds.Attrs[1].Kind != Categorical {
		t.Errorf("kinds = %v,%v", ds.Attrs[0].Kind, ds.Attrs[1].Kind)
	}
}

func TestReadCSVTransAttrOption(t *testing.T) {
	in := "Age,Basket\n25,a b c\n31,b\n"
	ds, err := ReadCSV(strings.NewReader(in), Options{TransAttr: "Basket"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.TransName != "Basket" {
		t.Fatalf("TransName = %q", ds.TransName)
	}
	if !reflect.DeepEqual(ds.Records[0].Items, []string{"a", "b", "c"}) {
		t.Errorf("items = %v", ds.Records[0].Items)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"ragged row":     "A,B\n1\n",
		"bad kind":       "A:bogus\n1\n",
		"two trans cols": "A:transaction,B:transaction\nx,y\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), Options{}); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestHistogram(t *testing.T) {
	ds := sample()
	h := ds.Histogram(1)
	want := []Frequency{{"F", 2}, {"M", 2}}
	if !reflect.DeepEqual(h, want) {
		t.Errorf("Histogram = %v, want %v", h, want)
	}
	ih := ds.ItemHistogram()
	if ih[0].Value != "a" || ih[0].Count != 3 {
		t.Errorf("ItemHistogram[0] = %v", ih[0])
	}
}

func TestSummarize(t *testing.T) {
	ds := sample()
	s, err := ds.Summarize(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 25 || s.Max != 47 || s.Count != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.Median != 28 { // (25+31)/2
		t.Errorf("median = %v, want 28", s.Median)
	}
	if _, err := ds.Summarize(1); err == nil {
		t.Error("Summarize on categorical should fail")
	}
}

func TestSummarizeTransactions(t *testing.T) {
	ds := sample()
	st := ds.SummarizeTransactions()
	if st.DistinctItems != 3 || st.Occurrences != 5 || st.MinSize != 0 || st.MaxSize != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEditOperations(t *testing.T) {
	ds := sample()
	if err := ds.RenameAttribute("Age", "YearsOld"); err != nil {
		t.Fatal(err)
	}
	if ds.AttrIndex("YearsOld") != 0 {
		t.Error("rename did not apply")
	}
	if err := ds.RenameAttribute("Items", "Basket"); err != nil {
		t.Fatal(err)
	}
	if ds.TransName != "Basket" {
		t.Error("transaction rename did not apply")
	}
	if err := ds.RenameAttribute("Gender", "Basket"); err == nil {
		t.Error("rename collision not caught")
	}
	if err := ds.AddAttribute(Attribute{Name: "Zip"}, "00000"); err != nil {
		t.Fatal(err)
	}
	if ds.Records[0].Values[2] != "00000" {
		t.Error("AddAttribute default not applied")
	}
	if err := ds.DeleteAttribute("Zip"); err != nil {
		t.Fatal(err)
	}
	if len(ds.Records[0].Values) != 2 {
		t.Error("DeleteAttribute did not shrink records")
	}
	if err := ds.SetValue(0, "Gender", "F"); err != nil {
		t.Fatal(err)
	}
	if ds.Records[0].Values[1] != "F" {
		t.Error("SetValue did not apply")
	}
	if err := ds.SetItems(0, []string{"z", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Records[0].Items, []string{"y", "z"}) {
		t.Error("SetItems did not normalize")
	}
	n := ds.Len()
	if err := ds.DeleteRecord(0); err != nil || ds.Len() != n-1 {
		t.Error("DeleteRecord failed")
	}
	if err := ds.DeleteRecord(99); err == nil {
		t.Error("out-of-range DeleteRecord not caught")
	}
}

func TestReplaceValueAndItem(t *testing.T) {
	ds := sample()
	n, err := ds.ReplaceValue("Gender", "M", "Male")
	if err != nil || n != 2 {
		t.Fatalf("ReplaceValue = %d, %v", n, err)
	}
	n, err = ds.ReplaceItem("a", "alpha")
	if err != nil || n != 3 {
		t.Fatalf("ReplaceItem = %d, %v", n, err)
	}
	for _, r := range ds.Records {
		for _, it := range r.Items {
			if it == "a" {
				t.Fatal("item a survived ReplaceItem")
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{{"categorical", Categorical}, {"NUMERIC", Numeric}, {"t", Transaction}, {" set ", Transaction}} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseKind("whatever"); err == nil {
		t.Error("bad kind accepted")
	}
}

// Property: normalizeItems is idempotent and always yields a sorted,
// duplicate-free slice, for arbitrary inputs.
func TestNormalizeItemsProperty(t *testing.T) {
	f := func(items []string) bool {
		once := normalizeItems(append([]string(nil), items...))
		twice := normalizeItems(append([]string(nil), once...))
		if !reflect.DeepEqual(once, twice) {
			return false
		}
		for i := 1; i < len(once); i++ {
			if once[i] <= once[i-1] {
				return false
			}
		}
		for _, it := range once {
			if it == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CSV round-trip preserves arbitrary datasets with restricted
// alphabets (values without separators).
func TestCSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := []string{"a", "b", "c", "dd", "ee", "f1", "g2"}
	for trial := 0; trial < 50; trial++ {
		ds := New([]Attribute{{Name: "X", Kind: Categorical}, {Name: "Y", Kind: Numeric}}, "T")
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			items := make([]string, rng.Intn(4))
			for j := range items {
				items[j] = alpha[rng.Intn(len(alpha))]
			}
			rec := Record{Values: []string{alpha[rng.Intn(len(alpha))], "42"}, Items: items}
			if err := ds.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf, Options{}); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.Records, back.Records) {
			t.Fatalf("trial %d: round-trip mismatch", trial)
		}
	}
}
