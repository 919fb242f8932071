package transaction

import (
	"math/rand"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

func sensitiveItems(ds *dataset.Dataset, n int) []string {
	dom := ds.ItemDomain()
	if n > len(dom) {
		n = len(dom)
	}
	// Mark the most popular items sensitive to force real work.
	h := ds.ItemHistogram()
	out := make([]string, 0, n)
	for _, f := range h[:n] {
		out = append(out, f.Value)
	}
	return out
}

func TestRhoUncertaintyEnforcesBound(t *testing.T) {
	ds, _ := transData(t, 300, 20, 41)
	sens := sensitiveItems(ds, 4)
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		res, err := RhoUncertainty(ds, Options{Rho: rho, M: 2, Sensitive: sens})
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		if !IsRhoUncertain(publishedRecords(ds, res), sens, rho, 2) {
			t.Errorf("rho=%v: output violates rho-uncertainty", rho)
		}
	}
}

func TestRhoUncertaintyTighterBoundSuppressesMore(t *testing.T) {
	ds, _ := transData(t, 300, 20, 43)
	sens := sensitiveItems(ds, 4)
	loose, err := RhoUncertainty(ds, Options{Rho: 0.8, M: 1, Sensitive: sens})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RhoUncertainty(ds, Options{Rho: 0.1, M: 1, Sensitive: sens})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Suppressed) < len(loose.Suppressed) {
		t.Errorf("tight rho suppressed %d items, loose %d", len(tight.Suppressed), len(loose.Suppressed))
	}
}

func TestRhoUncertaintyNoViolationsNoChanges(t *testing.T) {
	// One sensitive item carried by a small fraction of transactions:
	// conf(empty -> s) is already below rho.
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for i := 0; i < 20; i++ {
		items := []string{"pub1", "pub2"}
		if i == 0 {
			items = append(items, "sens")
		}
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RhoUncertainty(ds, Options{Rho: 0.5, M: 0, Sensitive: []string{"sens"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("suppressed %v without violations", res.Suppressed)
	}
}

func TestRhoUncertaintyEmptyAntecedent(t *testing.T) {
	// Sensitive item in every transaction: conf(empty -> s) = 1 > rho, so
	// s itself must be suppressed.
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for i := 0; i < 10; i++ {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: []string{"pub", "sens"}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RhoUncertainty(ds, Options{Rho: 0.5, M: 1, Sensitive: []string{"sens"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0] != "sens" {
		t.Errorf("suppressed = %v, want [sens]", res.Suppressed)
	}
	if !IsRhoUncertain(publishedRecords(ds, res), []string{"sens"}, 0.5, 1) {
		t.Error("bound still violated")
	}
}

func TestRhoUncertaintyOptionErrors(t *testing.T) {
	ds, _ := transData(t, 40, 8, 47)
	sens := sensitiveItems(ds, 2)
	for _, bad := range []Options{
		{Rho: 0, M: 1, Sensitive: sens},
		{Rho: 1, M: 1, Sensitive: sens},
		{Rho: 0.5, M: -1, Sensitive: sens},
		{Rho: 0.5, M: 1},
	} {
		if _, err := RhoUncertainty(ds, bad); err == nil {
			t.Errorf("options %+v accepted", bad)
		}
	}
	rel := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	if _, err := RhoUncertainty(rel, Options{Rho: 0.5, M: 1, Sensitive: []string{"s"}}); err == nil {
		t.Error("relational-only dataset accepted")
	}
}

// Property: on random small datasets the output always satisfies the bound
// and only ever removes items (truthfulness).
func TestRhoUncertaintyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	universe := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 40; trial++ {
		ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			var items []string
			for _, u := range universe {
				if rng.Intn(3) == 0 {
					items = append(items, u)
				}
			}
			if len(items) == 0 {
				items = []string{universe[rng.Intn(len(universe))]}
			}
			if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
				t.Fatal(err)
			}
		}
		sens := []string{"a", "f"}
		rho := 0.2 + rng.Float64()*0.6
		m := 1 + rng.Intn(2)
		res, err := RhoUncertainty(ds, Options{Rho: rho, M: m, Sensitive: sens})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !IsRhoUncertain(publishedRecords(ds, res), sens, rho, m) {
			t.Fatalf("trial %d: bound violated (rho=%v m=%d)", trial, rho, m)
		}
		// Truthfulness: every published item existed in the original
		// record.
		for r := range ds.Records {
			orig := make(map[string]bool)
			for _, it := range ds.Records[r].Items {
				orig[it] = true
			}
			for _, it := range publishedRecords(ds, res).Records[r].Items {
				if !orig[it] {
					t.Fatalf("trial %d: invented item %q", trial, it)
				}
			}
		}
	}
}

func TestRhoViaEngineDataShapes(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 150, Items: 12, Seed: 59})
	sens := sensitiveItems(ds, 2)
	res, err := RhoUncertainty(ds, Options{Rho: 0.4, M: 2, Sensitive: sens})
	if err != nil {
		t.Fatal(err)
	}
	if publishedRecords(ds, res).Len() != ds.Len() {
		t.Error("record count changed")
	}
	if len(res.Phases) < 3 {
		t.Errorf("phases = %v", res.Phases)
	}
}

// rhoData builds a one-attribute dataset whose records carry the given
// baskets.
func rhoData(t *testing.T, baskets ...[]string) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for _, items := range baskets {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// An item name holding NUL is one public item, not two: the rule
// {"a\x00b"} -> s (confidence 1) is fixed by suppressing it.
func TestRhoUncertaintyNULInItemName(t *testing.T) {
	ds := rhoData(t, []string{"a\x00b", "s"}, []string{"c"}, []string{"c"}, []string{"c"})
	res, err := RhoUncertainty(ds, Options{Rho: 0.5, M: 1, Sensitive: []string{"s"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0] != "a\x00b" {
		t.Errorf("suppressed = %q, want [\"a\\x00b\"]", res.Suppressed)
	}
	if !IsRhoUncertain(publishedRecords(ds, res), []string{"s"}, 0.5, 1) {
		t.Error("bound still violated")
	}
}

// A sensitive item name holding \x01 is still one item: conf(∅ -> s) is
// 3/4 > rho, so the data is not rho-uncertain until s is suppressed.
func TestRhoUncertaintySOHInItemName(t *testing.T) {
	s := "x\x01y"
	ds := rhoData(t, []string{s}, []string{s}, []string{s}, []string{"c"})
	if IsRhoUncertain(ds, []string{s}, 0.5, 1) {
		t.Error("conf(∅ -> s) = 0.75 > 0.5 reported rho-uncertain")
	}
	res, err := RhoUncertainty(ds, Options{Rho: 0.5, M: 1, Sensitive: []string{s}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0] != s {
		t.Errorf("suppressed = %q, want [%q]", res.Suppressed, s)
	}
}
