package export

import (
	"io"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/relational"
)

// BenchmarkRecordsNDJSON streams a published relational result — Cluster
// at k=6 over the 2,000 generated census records the anon-miss end-to-end
// workload uses — as NDJSON from the interned columns the algorithm
// publishes. The escaped row interns the same records with every value
// and item wrapped in HTML, non-ASCII and control characters, so each
// dictionary entry takes the escaper's slow path.
func BenchmarkRecordsNDJSON(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 24, Seed: 1})
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	res, err := relational.Cluster(ds, relational.Options{K: 6, Hierarchies: hs, Interned: dataset.Intern(ds)})
	if err != nil {
		b.Fatal(err)
	}
	for _, src := range []struct {
		name string
		src  *dataset.Indexed
	}{
		{"indexed", res.Anonymized},
		{"indexed-escaped", dataset.Intern(needsEscaping(res.Anonymized.Materialize()))},
	} {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := RecordsNDJSON(io.Discard, src.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// needsEscaping rewrites every value and item of d in place so that its
// JSON literal needs escapes, and returns d.
func needsEscaping(d *dataset.Dataset) *dataset.Dataset {
	wrap := func(v string) string { return "<" + v + "> & \"ü\"\t" }
	for r := range d.Records {
		rec := &d.Records[r]
		for a, v := range rec.Values {
			rec.Values[a] = wrap(v)
		}
		for i, it := range rec.Items {
			rec.Items[i] = wrap(it)
		}
	}
	return d
}
