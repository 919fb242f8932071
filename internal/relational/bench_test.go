package relational

import (
	"fmt"
	"slices"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

// benchCase is one benchmarked run: records generated census records at
// k, with Incognito's suppression budget supp.
type benchCase struct {
	records, k int
	supp       float64
}

// anonMissCases are the size the anon-miss end-to-end workload feeds the
// relational algorithms — 2,000 records — at k=6 and k=10.
var anonMissCases = []benchCase{{2000, 6, 0}, {2000, 10, 0}}

// benchAlgorithm times one relational algorithm on generated census data
// with fanout-4 hierarchies and the shared interning, one sub-benchmark
// per case.
func benchAlgorithm(b *testing.B, run func(*dataset.Dataset, Options) (*Result, error), cases ...benchCase) {
	for _, c := range cases {
		ds := gen.Census(gen.Config{Records: c.records, Items: 24, Seed: 1})
		hs, err := gen.Hierarchies(ds, 4)
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{K: c.k, Hierarchies: hs, Interned: dataset.Intern(ds), MaxSuppression: c.supp}
		name := fmt.Sprintf("n%d_k%d", c.records, c.k)
		if c.supp > 0 {
			name += fmt.Sprintf("_supp%g", c.supp)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCluster keeps its earlier harness rows — 2,000 records at k=8
// and 1,000 at k=4 — and adds the anon-miss cases and 20,000 records at
// k=1, where no cluster absorbs and a run must stay linear in n.
func BenchmarkCluster(b *testing.B) {
	benchAlgorithm(b, Cluster, slices.Concat([]benchCase{{2000, 8, 0}, {1000, 4, 0}}, anonMissCases, []benchCase{{20000, 1, 0}})...)
}

func BenchmarkBottomUp(b *testing.B) { benchAlgorithm(b, BottomUp, anonMissCases...) }
func BenchmarkTopDown(b *testing.B)  { benchAlgorithm(b, TopDown, anonMissCases...) }

// BenchmarkIncognito adds, to the anon-miss cases, the compare-sweep
// workload's shape — 1,000 records, its sweep's lowest and highest k —
// and a 5% suppression budget.
func BenchmarkIncognito(b *testing.B) {
	benchAlgorithm(b, Incognito, slices.Concat(anonMissCases, []benchCase{{1000, 4, 0}, {1000, 10, 0}, {2000, 6, 0.05}})...)
}
