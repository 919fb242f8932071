package rt

import (
	"bytes"
	"fmt"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
)

// encodeResult renders everything the differential tests compare: the
// anonymized records byte for byte and the traversal's counters.
func encodeResult(t testing.TB, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Anonymized.Materialize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "\nmerges=%d clusters=%d repairs=%d suppressed=%d",
		res.Merges, res.Clusters, res.TransRepairs, res.SuppressedClusters)
	return buf.Bytes()
}

// checkMergeMatchesReference runs the reference once and Anonymize with
// and without the shared interning, requiring identical results (or the
// same error) from all three.
func checkMergeMatchesReference(t *testing.T, ds *dataset.Dataset, ix *dataset.Indexed, opts Options) {
	t.Helper()
	opts.Interned = nil
	ref, refErr := refAnonymize(ds, opts)
	for _, interned := range []*dataset.Indexed{nil, ix} {
		opts.Interned = interned
		res, err := Anonymize(ds, opts)
		if refErr != nil || err != nil {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("interned=%v: error %v, reference %v", interned != nil, err, refErr)
			}
			continue
		}
		if got, want := encodeResult(t, res), encodeResult(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("interned=%v: result differs from the reference\n got: %s\nwant: %s",
				interned != nil, tail(got), tail(want))
		}
	}
}

// tail keeps a failure message readable: the counters line and the last
// records before it.
func tail(b []byte) []byte {
	if len(b) > 400 {
		return b[len(b)-400:]
	}
	return b
}

// mergeFixture is one generated dataset with its hierarchies and
// interning.
type mergeFixture struct {
	ds *dataset.Dataset
	ix *dataset.Indexed
	hs generalize.Set
	ih *hierarchy.Hierarchy
}

func newMergeFixture(t testing.TB, records int, seed int64) mergeFixture {
	t.Helper()
	ds := gen.Census(gen.Config{Records: records, Items: 24, Seed: seed})
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	return mergeFixture{ds: ds, ix: dataset.Intern(ds), hs: hs, ih: ih}
}

// TestMergeMatchesReference pins the table-scored merge traversal to the
// KMCounter-scored reference on generated data: every bounding method
// over every relational algorithm, across k, m and delta. The reference
// rescans transactions for every candidate, so at 2,000 records the grid
// narrows to the end-to-end workloads' k and m at the delta that merges
// most, and the race detector run leaves that size out. The transaction
// algorithm that repairs leftover clusters rotates over the three
// hierarchy-based ones; the repair is the same code on both sides.
func TestMergeMatchesReference(t *testing.T) {
	transAlgos := []string{"apriori", "lra", "vpa"}
	grids := []struct {
		records int
		ks, ms  []int
		deltas  []float64
	}{
		{50, []int{2, 3, 6, 10}, []int{1, 2, 3}, []float64{0, 0.1, 0.5}},
		{300, []int{2, 3, 6, 10}, []int{1, 2, 3}, []float64{0, 0.1, 0.5}},
		{2000, []int{6, 10}, []int{1, 2}, []float64{0.5}},
	}
	for _, g := range grids {
		if raceEnabled && g.records > 300 {
			continue
		}
		fx := newMergeFixture(t, g.records, 1)
		for _, flavor := range []Flavor{RMerge, TMerge, RTMerge} {
			for _, rel := range RelationalAlgos {
				for ki, k := range g.ks {
					for mi, m := range g.ms {
						for di, delta := range g.deltas {
							opts := Options{
								K: k, M: m, Delta: delta,
								Hierarchies:   fx.hs,
								ItemHierarchy: fx.ih,
								RelAlgo:       rel,
								TransAlgo:     transAlgos[(ki+mi+di)%len(transAlgos)],
								Flavor:        flavor,
							}
							name := fmt.Sprintf("n%d/%s/%s+%s/k%d/m%d/d%g", g.records, flavor, rel, opts.TransAlgo, k, m, delta)
							t.Run(name, func(t *testing.T) {
								checkMergeMatchesReference(t, fx.ds, fx.ix, opts)
							})
						}
					}
				}
			}
		}
	}
}

// fuzzMergeOptions turns the first fuzz bytes into a configuration and a
// dataset seed; the rest of the input is ignored.
func fuzzMergeOptions(data []byte) (records int, seed int64, opts Options, ok bool) {
	if len(data) < 6 {
		return 0, 0, Options{}, false
	}
	opts = Options{
		K:         1 + int(data[0]%12),
		M:         1 + int(data[1]%3),
		Delta:     float64(data[2]%11) / 10,
		RelAlgo:   RelationalAlgos[int(data[3])%len(RelationalAlgos)],
		TransAlgo: []string{"apriori", "lra", "vpa"}[int(data[3]>>2)%3],
		Flavor:    Flavor(int(data[4]) % 3),
	}
	return 10 + int(data[5]%120), int64(data[4] >> 2), opts, true
}

// FuzzMergeMatchesReference requires the table-scored traversal to agree
// with the reference on small generated datasets under arbitrary k, m,
// delta, algorithms and bounding method, with and without the shared
// interning.
func FuzzMergeMatchesReference(f *testing.F) {
	f.Add([]byte{5, 1, 5, 1, 1, 100})
	f.Add([]byte{2, 2, 10, 0, 6, 40})
	f.Add([]byte{9, 0, 3, 3, 2, 119})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, seed, opts, ok := fuzzMergeOptions(data)
		if !ok {
			return
		}
		fx := newMergeFixture(t, records, seed)
		opts.Hierarchies, opts.ItemHierarchy = fx.hs, fx.ih
		checkMergeMatchesReference(t, fx.ds, fx.ix, opts)
	})
}

// BenchmarkRTMerge times whole RT runs whose merge traversal scores
// candidates from the support tables: Tmerger over Top-down (the
// anon-miss configuration whose single absorbing cluster made it the
// slowest job) and Rmerger over Cluster (the compare-sweep RT config).
func BenchmarkRTMerge(b *testing.B) {
	for _, tc := range []struct {
		records, k int
		rel, trans string
		flavor     Flavor
	}{
		{2000, 6, "topdown", "vpa", TMerge},
		{1000, 4, "cluster", "apriori", RMerge},
	} {
		fx := newMergeFixture(b, tc.records, 1)
		opts := Options{
			K: tc.k, M: 2, Delta: 0.5,
			Hierarchies:   fx.hs,
			ItemHierarchy: fx.ih,
			Interned:      fx.ix,
			RelAlgo:       tc.rel,
			TransAlgo:     tc.trans,
			Flavor:        tc.flavor,
		}
		name := fmt.Sprintf("%s+%s_%s_n%d_k%d", tc.rel, tc.trans, tc.flavor, tc.records, tc.k)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Anonymize(fx.ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
