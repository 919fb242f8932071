package transaction_test

import (
	"fmt"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/policy"
	"secreta/internal/rt"
	"secreta/internal/transaction"
)

// BenchmarkApriori measures full Apriori repair runs — the level-wise
// violation scan plus the per-round cut updates — on a Zipf-skewed basket
// set, the workload the experiment grid gates as "apriori".
func BenchmarkApriori(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 1500, Items: 48, MaxBasket: 6, Seed: 7})
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transaction.Apriori(ds, transaction.Options{K: 5, M: 2, ItemHierarchy: ih})
		if err != nil {
			b.Fatal(err)
		}
		if res.Items == nil {
			b.Fatal("no output")
		}
	}
}

// BenchmarkHierarchyShapes runs the hierarchy-based transaction
// algorithms at the shapes of the end-to-end workloads, on generated
// census data with fanout-4 hierarchies and m = 2: Apriori at
// compare-sweep's size and its lowest and highest k, LRA and VPA at
// anon-miss's size and middle k, and compare-sweep's RT combination over
// a 400-item domain, whose hierarchy is too large for Apriori's flat pair
// table, so RT's many small per-cluster repairs count pairs in the map.
func BenchmarkHierarchyShapes(b *testing.B) {
	for _, tc := range []struct {
		algo              string
		records, items, k int
	}{
		{"apriori", 1000, 24, 4},
		{"apriori", 1000, 24, 12},
		{"lra", 2000, 24, 8},
		{"vpa", 2000, 24, 8},
		{"cluster+apriori_Rmerger", 1000, 400, 4},
	} {
		ds := gen.Census(gen.Config{Records: tc.records, Items: tc.items, Seed: 1})
		ih, err := gen.ItemHierarchy(ds, 4)
		if err != nil {
			b.Fatal(err)
		}
		var run func() error
		if tc.algo == "cluster+apriori_Rmerger" {
			hs, err := gen.Hierarchies(ds, 4)
			if err != nil {
				b.Fatal(err)
			}
			opts := rt.Options{
				K: tc.k, M: 2, Delta: 0.5,
				Hierarchies: hs, ItemHierarchy: ih, Interned: dataset.Intern(ds),
				RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
			}
			run = func() error { _, err := rt.Anonymize(ds, opts); return err }
		} else {
			algo, err := rt.TransactionByName(tc.algo)
			if err != nil {
				b.Fatal(err)
			}
			opts := transaction.Options{K: tc.k, M: 2, ItemHierarchy: ih}
			run = func() error { _, err := algo(ds, opts); return err }
		}
		b.Run(fmt.Sprintf("%s_n%d_i%d_k%d", tc.algo, tc.records, tc.items, tc.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMappingShapes runs the mapping-based transaction algorithms
// at anon-miss's dataset shape (2,000 generated census records over 24
// items) with k = 8 and m = 2: COAT and PCTA protect every frequent
// itemset of size <= m under the top-level utility policy, and
// rho-uncertainty bounds two sensitive items at rho = 0.3.
func BenchmarkMappingShapes(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 24, Seed: 1})
	pol := &policy.Policy{Privacy: policy.PrivacyFrequent(ds, 1, 2), Utility: policy.UtilityTop(ds)}
	for _, tc := range []struct {
		name string
		run  func(*dataset.Dataset, transaction.Options) (*transaction.Result, error)
		opts transaction.Options
	}{
		{"coat", transaction.COAT, transaction.Options{K: 8, M: 2, Policy: pol}},
		{"pcta", transaction.PCTA, transaction.Options{K: 8, M: 2, Policy: pol}},
		{"rho", transaction.RhoUncertainty, transaction.Options{M: 2, Rho: 0.3, Sensitive: []string{gen.ItemName(0), gen.ItemName(5)}}},
	} {
		b.Run(fmt.Sprintf("%s_n2000_i24", tc.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.run(ds, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
