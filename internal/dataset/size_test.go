package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestIndexedApproxBytesProperty checks that the by-ID sum over the
// columns equals ApproxBytes of the materialized dataset — and of the
// source dataset — on generated data with zero records, zero attributes,
// empty baskets and strings of varying length, and on a prefix of the
// records whose dictionaries keep values no remaining record uses.
func TestIndexedApproxBytesProperty(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		attrs := make([]Attribute, rng.Intn(4))
		for a := range attrs {
			attrs[a] = Attribute{Name: fmt.Sprintf("A%d", a), Kind: Categorical}
		}
		trans := ""
		if seed%3 != 0 {
			trans = "Items"
		}
		ds := New(attrs, trans)
		for r := rng.Intn(40); r > 0; r-- {
			rec := Record{Values: make([]string, len(attrs))}
			for a := range attrs {
				rec.Values[a] = strings.Repeat("v", rng.Intn(5)) + fmt.Sprint(rng.Intn(7))
			}
			if trans != "" {
				for i := rng.Intn(4); i > 0; i-- {
					rec.Items = append(rec.Items, fmt.Sprintf("item-%d", rng.Intn(12)))
				}
			}
			if err := ds.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		ix := Intern(ds)
		if got, want := ix.ApproxBytes(), ix.Materialize().ApproxBytes(); got != want || got != ds.ApproxBytes() {
			t.Fatalf("seed %d: Indexed.ApproxBytes = %d, materialized %d, source %d", seed, got, want, ds.ApproxBytes())
		}
		// Keep a prefix: the dictionaries now hold unused values.
		keep := ix.N / 2
		ix.N = keep
		for a := range ix.Cols {
			ix.Cols[a] = ix.Cols[a][:keep]
		}
		if ix.Items != nil {
			ix.Items = ix.Items[:keep]
		}
		if got, want := ix.ApproxBytes(), ix.Materialize().ApproxBytes(); got != want {
			t.Fatalf("seed %d, %d-record prefix: Indexed.ApproxBytes = %d, materialized %d", seed, keep, got, want)
		}
	}
}
