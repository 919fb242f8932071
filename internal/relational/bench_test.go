package relational

import (
	"fmt"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

// benchAlgorithm times one relational algorithm at the size the anon-miss
// end-to-end workload feeds it — 2,000 generated census records with
// fanout-4 hierarchies and the shared interning — at k=6 and k=10.
func benchAlgorithm(b *testing.B, run func(*dataset.Dataset, Options) (*Result, error)) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 24, Seed: 1})
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	ix := dataset.Intern(ds)
	for _, k := range []int{6, 10} {
		opts := Options{K: k, Hierarchies: hs, Interned: ix}
		b.Run(fmt.Sprintf("n2000_k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBottomUp(b *testing.B)  { benchAlgorithm(b, BottomUp) }
func BenchmarkTopDown(b *testing.B)   { benchAlgorithm(b, TopDown) }
func BenchmarkIncognito(b *testing.B) { benchAlgorithm(b, Incognito) }
