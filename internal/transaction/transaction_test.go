package transaction

import (
	"reflect"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/privacy"
)

func transData(t testing.TB, n, items int, seed int64) (*dataset.Dataset, *hierarchy.Hierarchy) {
	t.Helper()
	ds := gen.Census(gen.Config{Records: n, Items: items, Seed: seed})
	h, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds, h
}

func TestAprioriEnforcesKM(t *testing.T) {
	ds, h := transData(t, 200, 30, 3)
	for _, k := range []int{2, 5, 10} {
		for _, m := range []int{1, 2} {
			res, err := Apriori(ds, Options{K: k, M: m, ItemHierarchy: h})
			if err != nil {
				t.Fatalf("k=%d m=%d: %v", k, m, err)
			}
			trs := privacy.Transactions(publishedRecords(ds, res), nil)
			if !privacy.IsKMAnonymous(trs, k, m) {
				t.Errorf("k=%d m=%d: output violates k^m-anonymity", k, m)
			}
			if res.Cut == nil {
				t.Error("Apriori returned no cut")
			}
		}
	}
}

func TestAprioriGeneralizesOnlyWhenNeeded(t *testing.T) {
	// All transactions identical: already k^m-anonymous; nothing changes.
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for i := 0; i < 5; i++ {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := hierarchy.NewBuilder("T").
		Add("All", "a").Add("All", "b").Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apriori(ds, Options{K: 5, M: 2, ItemHierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generalizations != 0 {
		t.Errorf("generalizations = %d, want 0", res.Generalizations)
	}
	if got := publishedRecords(ds, res).Records[0].Items; len(got) != 2 || got[0] != "a" {
		t.Errorf("items changed: %v", got)
	}
}

func TestAprioriInfeasible(t *testing.T) {
	// Two distinct singleton transactions, k=5 > n: even the root item has
	// support 2 < k, and no further generalization exists.
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for _, it := range []string{"a", "b"} {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: []string{it}}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := hierarchy.NewBuilder("T").Add("All", "a").Add("All", "b").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apriori(ds, Options{K: 5, M: 1, ItemHierarchy: h}); err == nil {
		t.Error("infeasible instance accepted")
	}
}

func TestLRAEnforcesKMGlobally(t *testing.T) {
	ds, h := transData(t, 240, 24, 5)
	for _, parts := range []int{1, 2, 4} {
		res, err := LRA(ds, Options{K: 4, M: 2, ItemHierarchy: h, Partitions: parts})
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		trs := privacy.Transactions(publishedRecords(ds, res), nil)
		if !privacy.IsKMAnonymous(trs, 4, 2) {
			t.Errorf("parts=%d: output violates k^m-anonymity", parts)
		}
	}
}

func TestVPAEnforcesKM(t *testing.T) {
	ds, h := transData(t, 240, 24, 7)
	res, err := VPA(ds, Options{K: 4, M: 2, ItemHierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	trs := privacy.Transactions(publishedRecords(ds, res), nil)
	if !privacy.IsKMAnonymous(trs, 4, 2) {
		t.Error("VPA output violates k^m-anonymity")
	}
	// Explicit small partition count also works.
	res, err = VPA(ds, Options{K: 4, M: 2, ItemHierarchy: h, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !privacy.IsKMAnonymous(privacy.Transactions(publishedRecords(ds, res), nil), 4, 2) {
		t.Error("VPA (2 parts) output violates k^m-anonymity")
	}
}

func TestHierarchyAlgosPreserveRelationalPart(t *testing.T) {
	ds, h := transData(t, 100, 16, 11)
	for name, run := range map[string]func(*dataset.Dataset, Options) (*Result, error){
		"Apriori": Apriori, "LRA": LRA, "VPA": VPA,
	} {
		res, err := run(ds, Options{K: 3, M: 2, ItemHierarchy: h})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := range ds.Records {
			for i := range ds.Records[r].Values {
				if publishedRecords(ds, res).Records[r].Values[i] != ds.Records[r].Values[i] {
					t.Fatalf("%s: relational values changed", name)
				}
			}
		}
	}
}

func TestCOATProtectsPolicy(t *testing.T) {
	ds, h := transData(t, 200, 20, 13)
	pol := &policy.Policy{
		Privacy: policy.PrivacyAllItems(ds),
		Utility: policy.UtilityFromHierarchy(h, 1),
	}
	for _, k := range []int{2, 5, 10} {
		res, err := COAT(ds, Options{K: k, Policy: pol})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ok, msg := PolicySatisfied(ds, res.Mapping, pol.Privacy, k)
		if !ok {
			t.Errorf("k=%d: %s", k, msg)
		}
	}
}

func TestCOATRespectsUtilityConstraints(t *testing.T) {
	ds, h := transData(t, 150, 16, 17)
	pol := &policy.Policy{
		Privacy: policy.PrivacyAllItems(ds),
		Utility: policy.UtilityFromHierarchy(h, 2),
	}
	res, err := COAT(ds, Options{K: 8, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	// Every published group must be a subset of one utility constraint.
	uidx := pol.UtilityIndex()
	groupOf := make(map[string][]string)
	for item, label := range res.Mapping {
		if label != "" {
			groupOf[label] = append(groupOf[label], item)
		}
	}
	for label, items := range groupOf {
		if len(items) == 1 {
			continue
		}
		want := uidx[items[0]]
		for _, it := range items[1:] {
			if uidx[it] != want {
				t.Fatalf("group %q mixes utility constraints", label)
			}
		}
	}
}

func TestCOATSuppressionFallback(t *testing.T) {
	// Singleton utility constraints forbid all merging: COAT must protect
	// rare items by suppression alone.
	ds, _ := transData(t, 100, 12, 19)
	pol := &policy.Policy{
		Privacy: policy.PrivacyAllItems(ds),
		Utility: policy.UtilitySingletons(ds),
	}
	res, err := COAT(ds, Options{K: 20, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ok, msg := PolicySatisfied(ds, res.Mapping, pol.Privacy, 20)
	if !ok {
		t.Error(msg)
	}
	if len(res.Suppressed) == 0 {
		t.Error("no suppression despite strict policy")
	}
}

func TestPCTAProtectsPolicy(t *testing.T) {
	ds, _ := transData(t, 200, 20, 23)
	pol := &policy.Policy{Privacy: policy.PrivacyAllItems(ds)}
	for _, k := range []int{2, 5, 10} {
		res, err := PCTA(ds, Options{K: k, Policy: pol})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ok, msg := PolicySatisfied(ds, res.Mapping, pol.Privacy, k)
		if !ok {
			t.Errorf("k=%d: %s", k, msg)
		}
	}
}

func TestPCTAWithFrequentConstraints(t *testing.T) {
	ds, _ := transData(t, 300, 24, 29)
	pol := &policy.Policy{Privacy: policy.PrivacyFrequent(ds, 2, 2)}
	res, err := PCTA(ds, Options{K: 5, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ok, msg := PolicySatisfied(ds, res.Mapping, pol.Privacy, 5)
	if !ok {
		t.Error(msg)
	}
}

func TestOptionValidation(t *testing.T) {
	ds, h := transData(t, 50, 10, 31)
	pol := &policy.Policy{Privacy: policy.PrivacyAllItems(ds), Utility: policy.UtilityTop(ds)}
	if _, err := Apriori(ds, Options{K: 0, M: 2, ItemHierarchy: h}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Apriori(ds, Options{K: 2, M: 0, ItemHierarchy: h}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Apriori(ds, Options{K: 2, M: 2}); err == nil {
		t.Error("missing hierarchy accepted")
	}
	rel := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	if _, err := Apriori(rel, Options{K: 2, M: 2, ItemHierarchy: h}); err == nil {
		t.Error("relational-only dataset accepted")
	}
	if _, err := COAT(ds, Options{K: 2}); err == nil {
		t.Error("COAT without policy accepted")
	}
	if _, err := COAT(ds, Options{K: 2, Policy: &policy.Policy{Privacy: pol.Privacy}}); err == nil {
		t.Error("COAT without utility policy accepted")
	}
	if _, err := PCTA(ds, Options{K: 2, Policy: &policy.Policy{}}); err == nil {
		t.Error("PCTA without privacy constraints accepted")
	}
	// Hierarchy that misses items in the data.
	tiny, err := hierarchy.NewBuilder("T").Add("All", "i0000").Add("All", "zzz").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apriori(ds, Options{K: 2, M: 1, ItemHierarchy: tiny}); err == nil {
		t.Error("incomplete hierarchy accepted")
	}
}

// TestMissingItemError pins the hierarchy algorithms' rejection of a
// hierarchy that misses items: the message names the smallest missing
// item, whatever record it first occurs in.
func TestMissingItemError(t *testing.T) {
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for _, items := range [][]string{{"d", "e"}, {"a", "c"}, {"a", "b", "e"}} {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := hierarchy.NewBuilder("T").Add("All", "L").Add("L", "a").Add("L", "c").Add("All", "e").Build()
	if err != nil {
		t.Fatal(err)
	}
	const want = `transaction: item hierarchy misses item "b"`
	for name, run := range map[string]func(*dataset.Dataset, Options) (*Result, error){
		"apriori": Apriori, "lra": LRA, "vpa": VPA,
	} {
		_, err := run(ds, Options{K: 2, M: 2, ItemHierarchy: h})
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", name, err, want)
		}
	}
}

func TestGroupTable(t *testing.T) {
	g := newGroupTable([]string{"a", "b", "c"})
	if g.label("a") != "a" || g.size("a") != 1 {
		t.Error("initial state wrong")
	}
	g.merge("a", "b")
	if g.label("a") != "(a,b)" || g.label("b") != "(a,b)" || g.size("a") != 2 {
		t.Errorf("after merge: %q %q", g.label("a"), g.label("b"))
	}
	// Merging again is a no-op.
	g.merge("b", "a")
	if g.size("a") != 2 {
		t.Error("self-merge changed group")
	}
	g.suppress("c")
	if g.label("c") != "" {
		t.Error("suppressed label not empty")
	}
	if got := g.suppressed(); len(got) != 1 || got[0] != "c" {
		t.Errorf("suppressed = %v", got)
	}
	m := g.mapping()
	if m["a"] != "(a,b)" || m["c"] != "" {
		t.Errorf("mapping = %v", m)
	}
}

func TestUtilityOrderingCOATvsApriori(t *testing.T) {
	// With a permissive utility policy COAT should suppress little and
	// retain more per-item precision than full-domain-ish Apriori cuts at
	// the same k; we check the weaker, shape-level property that both
	// protect their targets while COAT keeps at least as many distinct
	// published labels.
	ds, h := transData(t, 300, 24, 37)
	ap, err := Apriori(ds, Options{K: 10, M: 1, ItemHierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	pol := &policy.Policy{Privacy: policy.PrivacyAllItems(ds), Utility: policy.UtilityTop(ds)}
	co, err := COAT(ds, Options{K: 10, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(d *dataset.Dataset) int {
		seen := make(map[string]bool)
		for r := range d.Records {
			for _, it := range d.Records[r].Items {
				seen[it] = true
			}
		}
		return len(seen)
	}
	if distinct(publishedRecords(ds, co)) < distinct(publishedRecords(ds, ap)) {
		t.Logf("note: COAT published %d labels, Apriori %d (allowed, but unusual)",
			distinct(publishedRecords(ds, co)), distinct(publishedRecords(ds, ap)))
	}
}

// TestPublishLabels pins the one publishing step of every transaction
// algorithm: baskets of node IDs through a cut, and baskets of domain
// ranks through a group table that merges and suppresses, come out as
// ascending IDs over a dictionary of exactly the published labels in
// value order, deduplicated, with an emptied basket nil.
func TestPublishLabels(t *testing.T) {
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "T")
	for _, items := range [][]string{{"a", "b"}, {"b"}, {"c"}, {"a", "b", "c"}, nil} {
		if err := ds.AddRecord(dataset.Record{Values: []string{"x"}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, items [][]uint32, dict *dataset.Interner, wantDict []string, want [][]string) {
		t.Helper()
		if !reflect.DeepEqual(dict.Values(), wantDict) {
			t.Fatalf("dictionary %q, want %q", dict.Values(), wantDict)
		}
		for r, basket := range items {
			var got []string
			for i, id := range basket {
				if i > 0 && basket[i-1] >= id {
					t.Fatalf("record %d: basket %v is not ascending", r, basket)
				}
				got = append(got, dict.Value(id))
			}
			if !reflect.DeepEqual(got, want[r]) || (want[r] == nil) != (basket == nil) {
				t.Fatalf("record %d published %q (%v), want %q", r, got, basket, want[r])
			}
		}
	}
	t.Run("cut", func(t *testing.T) {
		h, err := hierarchy.NewBuilder("T").
			Add("All", "ab").Add("All", "c").
			Add("ab", "a").Add("ab", "b").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		cut := hierarchy.NewCut(h)
		if err := cut.Specialize("All"); err != nil {
			t.Fatal(err)
		}
		ids, err := itemIDs(ds, h.Index())
		if err != nil {
			t.Fatal(err)
		}
		st := newAprioriState(ids, nil, cut, nil, pairTableCap)
		items, dict := publishLabels(st.txs, st.ix.Len(), st.ix.Value)
		check(t, items, dict, []string{"ab", "c"}, [][]string{{"ab"}, {"ab"}, {"c"}, {"ab", "c"}, nil})
	})
	t.Run("mapping", func(t *testing.T) {
		g := newGroupTable(ds.ItemDomain())
		g.merge("a", "b")
		g.suppress("c")
		items, dict := g.publish(recordRanks(ds, g))
		check(t, items, dict, []string{"(a,b)"}, [][]string{{"(a,b)"}, {"(a,b)"}, nil, {"(a,b)"}, nil})
	})
}
