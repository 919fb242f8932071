package engine

import (
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/query"
	"secreta/internal/rt"
)

func fixture(t testing.TB) (*dataset.Dataset, generalize.Set, *hierarchy.Hierarchy, *query.Workload) {
	t.Helper()
	ds := gen.Census(gen.Config{Records: 120, Items: 16, Seed: 21})
	hs, err := gen.Hierarchies(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := query.Generate(ds, query.GenOptions{Queries: 30, Dims: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds, hs, ih, w
}

func TestRunRelational(t *testing.T) {
	ds, hs, _, w := fixture(t)
	for _, algo := range rt.RelationalAlgos {
		res := Run(ds, Config{
			Mode: Relational, Algorithm: algo, K: 5,
			Hierarchies: hs, Workload: w,
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", algo, res.Err)
		}
		if !res.Indicators.KAnonymous {
			t.Errorf("%s: output not k-anonymous", algo)
		}
		if res.Indicators.GCP < 0 || res.Indicators.GCP > 1 {
			t.Errorf("%s: GCP = %v", algo, res.Indicators.GCP)
		}
		if res.Runtime <= 0 || len(res.Phases) == 0 {
			t.Errorf("%s: missing timing", algo)
		}
	}
}

func TestRunTransactional(t *testing.T) {
	ds, _, ih, _ := fixture(t)
	pol := &policy.Policy{Privacy: policy.PrivacyAllItems(ds), Utility: policy.UtilityTop(ds)}
	for _, algo := range rt.TransactionAlgos {
		res := Run(ds, Config{
			Mode: Transactional, Algorithm: algo, K: 3, M: 2,
			ItemHierarchy: ih, Policy: pol,
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", algo, res.Err)
		}
		if algo == "apriori" || algo == "lra" || algo == "vpa" {
			if !res.Indicators.KMAnonymous {
				t.Errorf("%s: output not k^m-anonymous", algo)
			}
		}
	}
}

func TestRunRT(t *testing.T) {
	ds, hs, ih, w := fixture(t)
	res := Run(ds, Config{
		Mode: RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: 4, M: 2, Delta: 0.3,
		Hierarchies: hs, ItemHierarchy: ih, Workload: w,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Indicators.KAnonymous || !res.Indicators.KMAnonymous {
		t.Errorf("RT privacy flags: %+v", res.Indicators)
	}
	if res.Indicators.ARE < 0 {
		t.Errorf("ARE = %v", res.Indicators.ARE)
	}
}

func TestRunErrorsAreCaptured(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	res := Run(ds, Config{Mode: Relational, Algorithm: "bogus", K: 2, Hierarchies: hs})
	if res.Err == nil {
		t.Error("bogus algorithm did not error")
	}
	res = Run(ds, Config{Mode: Mode(99), K: 2})
	if res.Err == nil {
		t.Error("bogus mode did not error")
	}
	res = Run(ds, Config{Mode: Relational, Algorithm: "incognito", K: ds.Len() + 1, Hierarchies: hs})
	if res.Err == nil {
		t.Error("infeasible k did not error")
	}
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	var cfgs []Config
	for _, k := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, Config{Mode: Relational, Algorithm: "cluster", K: k, Hierarchies: hs})
	}
	serial := RunAll(ds, cfgs, 1)
	parallel := RunAll(ds, cfgs, 4)
	for i := range cfgs {
		if (serial[i].Err == nil) != (parallel[i].Err == nil) {
			t.Fatalf("config %d: error mismatch", i)
		}
		if serial[i].Indicators.GCP != parallel[i].Indicators.GCP {
			t.Errorf("config %d: GCP %v vs %v", i, serial[i].Indicators.GCP, parallel[i].Indicators.GCP)
		}
	}
}

func TestRunAllKeepsOrderAndFailures(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	cfgs := []Config{
		{Mode: Relational, Algorithm: "cluster", K: 2, Hierarchies: hs},
		{Mode: Relational, Algorithm: "bogus", K: 2, Hierarchies: hs},
		{Mode: Relational, Algorithm: "topdown", K: 2, Hierarchies: hs},
	}
	results := RunAll(ds, cfgs, 0)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("valid configs failed")
	}
	if results[1].Err == nil {
		t.Error("invalid config succeeded")
	}
	if results[0].Config.Algorithm != "cluster" || results[2].Config.Algorithm != "topdown" {
		t.Error("result order broken")
	}
}

func TestDisplayLabel(t *testing.T) {
	c := Config{Mode: RT, RelAlgo: "cluster", TransAlgo: "coat", Flavor: rt.TMerge, K: 5, M: 2, Delta: 0.4}
	if got := c.DisplayLabel(); !strings.Contains(got, "cluster+coat") || !strings.Contains(got, "Tmerger") {
		t.Errorf("DisplayLabel = %q", got)
	}
	c = Config{Label: "custom"}
	if c.DisplayLabel() != "custom" {
		t.Error("explicit label ignored")
	}
	c = Config{Mode: Transactional, Algorithm: "apriori", K: 2, M: 2}
	if got := c.DisplayLabel(); !strings.Contains(got, "apriori") {
		t.Errorf("DisplayLabel = %q", got)
	}
}

func TestModeString(t *testing.T) {
	if Relational.String() != "relational" || Transactional.String() != "transaction" || RT.String() != "rt" {
		t.Error("mode names wrong")
	}
}
