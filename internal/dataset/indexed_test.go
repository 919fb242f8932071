package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestInternerRanked(t *testing.T) {
	first := NewInterner()
	for _, v := range []string{"b", "a", "c", "b", "a"} {
		first.Intern(v)
	}
	in, _ := first.Rank()
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
	// Rank interning: ID order == string order.
	for i, want := range []string{"a", "b", "c"} {
		if got := in.Value(uint32(i)); got != want {
			t.Errorf("Value(%d) = %q, want %q", i, got, want)
		}
		id, ok := in.ID(want)
		if !ok || id != uint32(i) {
			t.Errorf("ID(%q) = %d,%v, want %d", want, id, ok, i)
		}
	}
	if _, ok := in.ID("zzz"); ok {
		t.Error("unknown value resolved")
	}
}

func TestInternerFirstSeen(t *testing.T) {
	in := NewInterner()
	if id := in.Intern("x"); id != 0 {
		t.Fatalf("first ID = %d", id)
	}
	if id := in.Intern("y"); id != 1 {
		t.Fatalf("second ID = %d", id)
	}
	if id := in.Intern("x"); id != 0 {
		t.Fatalf("re-intern changed ID: %d", id)
	}
}

// TestIndexedRoundTrip is the core equivalence property: Intern followed
// by Materialize reproduces the dataset exactly, for random mixes of
// relational values, baskets, empty baskets and duplicate values.
func TestIndexedRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nAttrs := 1 + rng.Intn(4)
		attrs := make([]Attribute, nAttrs)
		for a := range attrs {
			attrs[a] = Attribute{Name: fmt.Sprintf("A%d", a), Kind: Categorical}
		}
		trans := ""
		if seed%2 == 0 {
			trans = "Items"
		}
		ds := New(attrs, trans)
		for r := 0; r < 1+rng.Intn(60); r++ {
			rec := Record{Values: make([]string, nAttrs)}
			for a := range attrs {
				rec.Values[a] = fmt.Sprintf("v%d", rng.Intn(6))
			}
			if trans != "" {
				for i := rng.Intn(5); i > 0; i-- {
					rec.Items = append(rec.Items, fmt.Sprintf("i%d", rng.Intn(9)))
				}
			}
			if err := ds.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		back := Intern(ds).Materialize()
		if !reflect.DeepEqual(ds, back) {
			t.Fatalf("seed %d: round trip diverged:\n got %+v\nwant %+v", seed, back, ds)
		}
	}
}

// TestIndexedRankOrder pins the ordering property the signature and
// violation hot paths rely on: within a column (and within the item
// dictionary), comparing IDs is comparing strings.
func TestIndexedRankOrder(t *testing.T) {
	ds := New([]Attribute{{Name: "A", Kind: Categorical}}, "T")
	vals := []string{"delta", "alpha", "bravo", "alpha", "charlie"}
	for i, v := range vals {
		if err := ds.AddRecord(Record{Values: []string{v}, Items: []string{vals[len(vals)-1-i]}}); err != nil {
			t.Fatal(err)
		}
	}
	ix := Intern(ds)
	for r1 := 0; r1 < ix.N; r1++ {
		for r2 := 0; r2 < ix.N; r2++ {
			idLess := ix.Cols[0][r1] < ix.Cols[0][r2]
			strLess := ds.Records[r1].Values[0] < ds.Records[r2].Values[0]
			if idLess != strLess {
				t.Fatalf("rank order broken: %q vs %q", ds.Records[r1].Values[0], ds.Records[r2].Values[0])
			}
		}
	}
	// Baskets come back as ascending IDs.
	for r := range ix.Items {
		ids := ix.Items[r]
		if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
			t.Fatalf("record %d items not ascending: %v", r, ids)
		}
	}
}

func TestInternColumnsSubset(t *testing.T) {
	ds := New([]Attribute{{Name: "A"}, {Name: "B"}, {Name: "C"}}, "")
	for i := 0; i < 5; i++ {
		if err := ds.AddRecord(Record{Values: []string{fmt.Sprint(i % 2), fmt.Sprint(i % 3), "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	cols, dicts := InternColumns(ds, []int{2, 0})
	if len(cols) != 2 || len(dicts) != 2 {
		t.Fatalf("got %d cols, %d dicts", len(cols), len(dicts))
	}
	if dicts[0].Len() != 1 || dicts[1].Len() != 2 {
		t.Fatalf("dict sizes = %d, %d", dicts[0].Len(), dicts[1].Len())
	}
	for r := range cols[0] {
		if got := dicts[0].Value(cols[0][r]); got != "x" {
			t.Fatalf("col 0 rec %d = %q", r, got)
		}
		if got := dicts[1].Value(cols[1][r]); got != ds.Records[r].Values[0] {
			t.Fatalf("col 1 rec %d = %q, want %q", r, got, ds.Records[r].Values[0])
		}
	}
}

// TestIndexedWithItems pins the join a transaction run publishes
// through: the baskets are replaced, every relational column is shared,
// and the source interning is left as it was.
func TestIndexedWithItems(t *testing.T) {
	ds := sample()
	ix := Intern(ds)
	dict := NewInterner()
	dict.Intern("G")
	items := make([][]uint32, ix.N)
	items[0] = []uint32{0}
	out := ix.WithItems(items, dict)
	if &out.Cols[0][0] != &ix.Cols[0][0] || out.Dicts[0] != ix.Dicts[0] || out.N != ix.N || out.TransName != ix.TransName {
		t.Fatal("WithItems does not share the relational columns")
	}
	for r, rec := range out.Materialize().Records {
		var want []string
		if r == 0 {
			want = []string{"G"}
		}
		if !reflect.DeepEqual(rec.Values, ds.Records[r].Values) || !reflect.DeepEqual(rec.Items, want) {
			t.Fatalf("record %d = %+v, want values %v and items %v", r, rec, ds.Records[r].Values, want)
		}
	}
	if !reflect.DeepEqual(ix.Materialize(), ds) {
		t.Fatal("WithItems changed its source")
	}
}

// TestIndexedDescribes checks the staleness test a supplied interning
// must pass: it describes the dataset it was interned from and no
// dataset of another shape.
func TestIndexedDescribes(t *testing.T) {
	ds := sample()
	ix := Intern(ds)
	if !ix.Describes(ds) {
		t.Fatal("an interning does not describe its own dataset")
	}
	shorter := ds.Clone()
	shorter.Records = shorter.Records[1:]
	renamed := ds.Clone()
	renamed.Attrs[0].Name = "other"
	relational := ds.Clone()
	relational.TransName = ""
	for r := range relational.Records {
		relational.Records[r].Items = nil
	}
	for name, other := range map[string]*Dataset{"fewer records": shorter, "renamed attribute": renamed, "no transaction": relational} {
		if ix.Describes(other) {
			t.Errorf("%s: a foreign interning passes", name)
		}
	}
}
