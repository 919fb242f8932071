package query

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
)

func data(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Gender", Kind: dataset.Categorical},
	}, "T")
	for _, r := range []dataset.Record{
		{Values: []string{"25", "M"}, Items: []string{"a", "b"}},
		{Values: []string{"27", "F"}, Items: []string{"a"}},
		{Values: []string{"31", "M"}, Items: []string{"c"}},
		{Values: []string{"47", "F"}, Items: []string{"b"}},
	} {
		if err := ds.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

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
	items, err := hierarchy.NewBuilder("T").
		Add("All", "ab").Add("All", "c").
		Add("ab", "a").Add("ab", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return generalize.Set{"Age": age}, items
}

func TestCountExact(t *testing.T) {
	ds := data(t)
	q := Query{Predicates: []Predicate{{Attr: "Age", Lo: 20, Hi: 30, Numeric: true}}}
	c, err := q.CountExact(ds)
	if err != nil || c != 2 {
		t.Errorf("range count = %v, %v", c, err)
	}
	q = Query{Predicates: []Predicate{{Attr: "Gender", Values: []string{"M"}}}}
	c, _ = q.CountExact(ds)
	if c != 2 {
		t.Errorf("point count = %v", c)
	}
	q = Query{Predicates: []Predicate{{Attr: "Gender", Values: []string{"F"}}}, Items: []string{"a"}}
	c, _ = q.CountExact(ds)
	if c != 1 {
		t.Errorf("item count = %v", c)
	}
	q = Query{Predicates: []Predicate{{Attr: "Nope", Values: []string{"x"}}}}
	if _, err := q.CountExact(ds); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestCountEstimateExactOnLeaves(t *testing.T) {
	ds := data(t)
	hs, itemH := hset(t)
	q := Query{Predicates: []Predicate{{Attr: "Age", Lo: 20, Hi: 30, Numeric: true}}, Items: []string{"a"}}
	exact, err := q.CountExact(ds)
	if err != nil {
		t.Fatal(err)
	}
	est, err := q.CountEstimate(ds, hs, itemH)
	if err != nil {
		t.Fatal(err)
	}
	if exact != est {
		t.Errorf("estimate on original = %v, exact = %v", est, exact)
	}
}

func TestCountEstimateGeneralized(t *testing.T) {
	ds := data(t)
	hs, itemH := hset(t)
	anon, err := generalize.FullDomain(ds, hs, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Query Age in [20,26]: covers leaf 25 only. Records generalized to
	// [20-29] (2 of them) contribute 1/2 each.
	q := Query{Predicates: []Predicate{{Attr: "Age", Lo: 20, Hi: 26, Numeric: true}}}
	est, err := q.CountEstimate(anon, hs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-1.0) > 1e-9 {
		t.Errorf("estimate = %v, want 1", est)
	}
	// Suppressed records contribute 0.
	generalize.SuppressRecord(anon, []int{0}, 0)
	est, _ = q.CountEstimate(anon, hs, nil)
	if math.Abs(est-0.5) > 1e-9 {
		t.Errorf("estimate after suppression = %v, want 0.5", est)
	}
	// Generalized items: basket {ab} covering queried a gives 1/2.
	cut := hierarchy.NewCut(itemH)
	if err := cut.Specialize("All"); err != nil {
		t.Fatal(err)
	}
	anonI := ds.Clone()
	for r := range anonI.Records {
		var items []string
		for _, it := range ds.Records[r].Items {
			g, err := cut.Map(it)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(items, g) {
				items = append(items, g)
			}
		}
		slices.Sort(items)
		anonI.Records[r].Items = items
	}
	qi := Query{Items: []string{"a"}}
	est, err = qi.CountEstimate(anonI, hs, itemH)
	if err != nil {
		t.Fatal(err)
	}
	// Records 0,1 have {ab} -> 1/2 each; record 3 has {ab} -> 1/2; record 2 has {c} -> 0.
	if math.Abs(est-1.5) > 1e-9 {
		t.Errorf("item estimate = %v, want 1.5", est)
	}
}

func TestARE(t *testing.T) {
	ds := data(t)
	hs, itemH := hset(t)
	w := &Workload{Queries: []Query{
		{Predicates: []Predicate{{Attr: "Age", Lo: 20, Hi: 30, Numeric: true}}},
		{Predicates: []Predicate{{Attr: "Gender", Values: []string{"M"}}}},
	}}
	are, err := ARE(w, ds, ds, hs, itemH)
	if err != nil || are != 0 {
		t.Errorf("ARE(identity) = %v, %v", are, err)
	}
	// Skew the age distribution so the uniform-spread estimate cannot be
	// exact after full generalization.
	if err := ds.AddRecord(dataset.Record{Values: []string{"25", "M"}, Items: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	w = &Workload{Queries: []Query{
		{Predicates: []Predicate{{Attr: "Age", Lo: 20, Hi: 26, Numeric: true}}},
	}}
	anon, err := generalize.FullDomain(ds, hs, []int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	are, err = ARE(w, ds, anon, hs, itemH)
	if err != nil {
		t.Fatal(err)
	}
	if are <= 0 {
		t.Errorf("ARE(generalized) = %v, want > 0", are)
	}
	if _, err := ARE(&Workload{}, ds, ds, hs, itemH); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestAREMonotoneInGeneralization(t *testing.T) {
	ds := data(t)
	hs, _ := hset(t)
	w := &Workload{Queries: []Query{
		{Predicates: []Predicate{{Attr: "Age", Lo: 20, Hi: 26, Numeric: true}}},
		{Predicates: []Predicate{{Attr: "Age", Lo: 30, Hi: 40, Numeric: true}}},
	}}
	lvl1, err := generalize.FullDomain(ds, hs, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	lvl2, err := generalize.FullDomain(ds, hs, []int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := ARE(w, ds, lvl1, hs, nil)
	a2, _ := ARE(w, ds, lvl2, hs, nil)
	if a2 < a1 {
		t.Errorf("ARE decreased with more generalization: %v -> %v", a1, a2)
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("Age=[20,40];Gender=M|F;items=a|b")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Predicates) != 2 || len(q.Items) != 2 {
		t.Errorf("parsed = %+v", q)
	}
	if !q.Predicates[0].Numeric || q.Predicates[0].Lo != 20 || q.Predicates[0].Hi != 40 {
		t.Errorf("range = %+v", q.Predicates[0])
	}
	// Reversed bounds are normalized.
	q, err = ParseQuery("Age=[40,20]")
	if err != nil || q.Predicates[0].Lo != 20 {
		t.Errorf("reversed range: %+v, %v", q, err)
	}
	for _, bad := range []string{"", "Age", "Age=[x,y]", "Age=[20]", "=v"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	in := "# comment\nAge=[20,40];items=a\nGender=M\n\n"
	w, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	var buf bytes.Buffer
	if err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Queries[0].String() != w.Queries[0].String() {
		t.Errorf("round-trip mismatch: %v vs %v", back.Queries, w.Queries)
	}
	if _, err := Read(strings.NewReader("# only comments\n")); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestGenerate(t *testing.T) {
	ds := data(t)
	w, err := Generate(ds, GenOptions{Queries: 20, Dims: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 20 {
		t.Fatalf("generated %d queries", w.Len())
	}
	for _, q := range w.Queries {
		if len(q.Predicates) != 2 {
			t.Errorf("query dims = %d", len(q.Predicates))
		}
		if len(q.Items) != 1 {
			t.Errorf("query items = %d", len(q.Items))
		}
		if _, err := q.CountExact(ds); err != nil {
			t.Errorf("generated query invalid: %v", err)
		}
	}
	// Determinism.
	w2, _ := Generate(ds, GenOptions{Queries: 20, Dims: 2, Seed: 1})
	for i := range w.Queries {
		if w.Queries[i].String() != w2.Queries[i].String() {
			t.Fatal("generation not deterministic")
		}
	}
	// No transaction attribute: no items.
	rel := dataset.New([]dataset.Attribute{{Name: "X"}}, "")
	if err := rel.AddRecord(dataset.Record{Values: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	w3, err := Generate(rel, GenOptions{Queries: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w3.Queries {
		if len(q.Items) != 0 {
			t.Error("items generated for relational dataset")
		}
	}
	empty := dataset.New([]dataset.Attribute{{Name: "X"}}, "")
	if _, err := Generate(empty, GenOptions{}); err == nil {
		t.Error("empty dataset accepted")
	}
}
