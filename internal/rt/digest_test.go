package rt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"secreta/internal/dataset"
)

// rtDigest is the SHA-256 of every RT output over the grid of
// TestRTOutputDigest, recorded while RT runs still published string
// datasets. A change that alters any published record, Merges,
// Clusters, TransRepairs or SuppressedClusters count — or an error —
// changes it.
const rtDigest = "e42461e4957a90b1cdc268594c4b6903ad7bc3e5b9aa5f1e630e5eca731e2699"

// publishedRecords returns the records a run publishes, as strings.
func publishedRecords(res *Result) *dataset.Dataset {
	return res.Anonymized.Materialize()
}

// writeRTOutput feeds one run's observable result into h.
func writeRTOutput(h hash.Hash, name string, res *Result, err error) {
	fmt.Fprintf(h, "%s\n", name)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		println("ERR", name, err.Error())
		return
	}
	for _, rec := range publishedRecords(res).Records {
		fmt.Fprintf(h, "%q %q\n", rec.Values, rec.Items)
	}
	println(name, res.Merges, res.Clusters, res.TransRepairs, res.SuppressedClusters)
	fmt.Fprintf(h, "merges %d clusters %d repairs %d suppressed %d\n",
		res.Merges, res.Clusters, res.TransRepairs, res.SuppressedClusters)
}

// TestRTOutputDigest requires RT runs to publish exactly what they
// published as string datasets: each bounding method with Cluster and
// each transaction algorithm, and each relational algorithm with
// Apriori under Rmerger, on generated census data at three (k, m, delta),
// with every basket and with every fifth basket emptied. The shared
// interning alternates across the grid.
func TestRTOutputDigest(t *testing.T) {
	full, hs, ih := rtData(t, 400, 11)
	// sparse empties every fifth basket, so some clusters cannot be
	// repaired and are suppressed.
	sparse := full.Clone()
	for r := range sparse.Records {
		if r%5 == 0 {
			sparse.Records[r].Items = nil
		}
	}
	type combo struct {
		rel, trans string
		flavor     Flavor
	}
	var grid []combo
	for _, f := range []Flavor{RMerge, TMerge, RTMerge} {
		for _, trans := range TransactionAlgos {
			grid = append(grid, combo{"cluster", trans, f})
		}
	}
	for _, rel := range RelationalAlgos {
		grid = append(grid, combo{rel, "apriori", RMerge})
	}
	h := sha256.New()
	for _, data := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"full", full}, {"sparse", sparse}} {
		shared := dataset.Intern(data.ds)
		for _, run := range []struct {
			k, m  int
			delta float64
		}{{3, 1, 0.05}, {5, 2, 0.05}, {5, 2, 0.3}} {
			for i, c := range grid {
				opts := Options{
					K: run.k, M: run.m, Delta: run.delta,
					Hierarchies: hs, ItemHierarchy: ih,
					RelAlgo: c.rel, TransAlgo: c.trans, Flavor: c.flavor,
				}
				if i%2 == 1 {
					opts.Interned = shared
				}
				res, err := Anonymize(data.ds, opts)
				writeRTOutput(h, fmt.Sprintf("%s/%s+%s/%s/k%d/m%d/d%v", data.name, c.rel, c.trans, c.flavor, run.k, run.m, run.delta), res, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rtDigest {
		t.Errorf("RT output digest %s, want %s", got, rtDigest)
	}
}
