package transaction_test

import (
	"testing"

	"secreta/internal/gen"
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
		if res.Anonymized == nil {
			b.Fatal("no output")
		}
	}
}
