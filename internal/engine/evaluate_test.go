package engine

import (
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/query"
)

func TestEvaluateRelationalOnlyIndicators(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	res := Run(ds, Config{Mode: Relational, Algorithm: "cluster", K: 4, Hierarchies: hs})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ind := res.Indicators
	if ind.TransactionGCP != 0 || ind.KMAnonymous {
		t.Errorf("transaction indicators set for relational run: %+v", ind)
	}
	if ind.Classes <= 0 || ind.MinClassSize < 4 {
		t.Errorf("class stats: %+v", ind)
	}
	if ind.CAVG < 1 {
		t.Errorf("CAVG = %v, want >= 1", ind.CAVG)
	}
}

func TestEvaluateTransactionalOnlyIndicators(t *testing.T) {
	ds, _, ih, _ := fixture(t)
	res := Run(ds, Config{Mode: Transactional, Algorithm: "apriori", K: 3, M: 2, ItemHierarchy: ih})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ind := res.Indicators
	if ind.GCP != 0 || ind.Classes != 0 {
		t.Errorf("relational indicators set for transaction run: %+v", ind)
	}
	if !ind.KMAnonymous {
		t.Error("k^m flag not set")
	}
}

func TestEvaluateUnknownQIFails(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	if _, err := Evaluate(ds, dataset.Intern(ds), Config{Mode: Relational, QIs: []string{"nope"}, Hierarchies: hs, K: 2}); err == nil {
		t.Error("unknown QI accepted")
	}
}

func TestEvaluateWorkloadErrorPropagates(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	w := &query.Workload{Queries: []query.Query{
		{Predicates: []query.Predicate{{Attr: "NoSuchAttr", Values: []string{"x"}}}},
	}}
	res := Run(ds, Config{Mode: Relational, Algorithm: "cluster", K: 2, Hierarchies: hs, Workload: w})
	if res.Err == nil {
		t.Error("broken workload did not surface an error")
	}
}

func TestEvaluateEmptyDatasetIsBenign(t *testing.T) {
	empty := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	ind, err := Evaluate(empty, dataset.Intern(empty), Config{Mode: Relational, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ind.GCP != 0 || ind.Classes != 0 {
		t.Errorf("empty dataset indicators: %+v", ind)
	}
}

func TestRunRhoViaEngine(t *testing.T) {
	ds, _, _, _ := fixture(t)
	h := ds.ItemHistogram()
	res := Run(ds, Config{
		Mode: Transactional, Algorithm: "rho",
		K: 1, M: 2, Rho: 0.5, Sensitive: []string{h[0].Value},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Anonymized() == nil || len(res.Phases) == 0 {
		t.Error("rho run incomplete")
	}
}
