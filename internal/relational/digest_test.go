package relational

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

// outputDigest is the SHA-256 of every BottomUp, TopDown and Incognito
// output over digestGrid, recorded before the algorithms moved their
// class counting onto the interned QI view. A change that alters any
// published record, Levels or NodesChecked value — or an error — changes
// the digest.
const outputDigest = "8cd9746f7272b329899564d89d0b3a0c27892d086db4cb55e22c55f79eb2fd8c"

// partialDigest is the same digest over partly generalized input, where
// generalizeSome has replaced about a quarter of the QI cells with an
// ancestor. It was recorded before BottomUp and TopDown moved their
// pricing onto hierarchy node IDs, and pins that only records holding a
// leaf value are priced.
const partialDigest = "e10cf843b9350915f263ceec15689429b46058b627911f94819f1603bd1bace4"

// digestGrid runs fn once per grid point: generated census data at three
// sizes and three seeds, hierarchy fanouts 2 and 4, k 2/5/10, three QI
// selections, Incognito's suppression budget off and on, and the shared
// interning off and on. The 1,000-record size runs one seed and all QIs
// only, which keeps the test to a few seconds. With partial set, each
// dataset is first partly generalized through the grid point's
// hierarchies.
func digestGrid(t *testing.T, partial bool, fn func(name string, ds *dataset.Dataset, opts Options)) {
	t.Helper()
	qiSets := [][]string{nil, {"Age", "Zip"}, {"Gender", "Education", "Marital"}}
	for _, size := range []struct {
		records int
		seeds   []int64
		qiSets  [][]string
	}{
		{20, []int64{1, 2, 3}, qiSets},
		{150, []int64{1, 2, 3}, qiSets},
		{1000, []int64{1}, qiSets[:1]},
	} {
		for _, seed := range size.seeds {
			base := gen.Census(gen.Config{Records: size.records, Items: 0, Seed: seed})
			for _, fanout := range []int{2, 4} {
				hs, err := gen.Hierarchies(base, fanout)
				if err != nil {
					t.Fatal(err)
				}
				ds := base
				if partial {
					ds = generalizeSome(t, rand.New(rand.NewSource(seed)), base, hs)
				}
				shared := dataset.Intern(ds)
				for _, qis := range size.qiSets {
					for _, k := range []int{2, 5, 10} {
						for _, supp := range []float64{0, 0.05} {
							for _, ix := range []*dataset.Indexed{nil, shared} {
								name := fmt.Sprintf("n%d/seed%d/f%d/qis%v/k%d/supp%v/shared%v",
									size.records, seed, fanout, qis, k, supp, ix != nil)
								fn(name, ds, Options{K: k, QIs: qis, Hierarchies: hs, MaxSuppression: supp, Interned: ix})
							}
						}
					}
				}
			}
		}
	}
}

// writeOutput feeds one run's observable result into h.
func writeOutput(h hash.Hash, name string, res *Result, err error) {
	fmt.Fprintf(h, "%s\n", name)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	for _, rec := range res.Anonymized.Materialize().Records {
		fmt.Fprintf(h, "%q\n", rec.Values)
	}
	fmt.Fprintf(h, "levels %v nodes %d\n", res.Levels, res.NodesChecked)
}

// TestOutputDigest requires BottomUp, TopDown and Incognito to publish
// exactly the outputs they published before their class counting moved
// onto the interned QI view, on leaf-valued and on partly generalized
// input.
func TestOutputDigest(t *testing.T) {
	for _, d := range []struct {
		partial bool
		want    string
	}{{false, outputDigest}, {true, partialDigest}} {
		h := sha256.New()
		digestGrid(t, d.partial, func(name string, ds *dataset.Dataset, opts Options) {
			for _, a := range []algo{{"BottomUp", BottomUp}, {"TopDown", TopDown}, {"Incognito", Incognito}} {
				res, err := a.run(ds, opts)
				writeOutput(h, a.name+"/"+name, res, err)
			}
		})
		if got := hex.EncodeToString(h.Sum(nil)); got != d.want {
			t.Errorf("partial=%v: output digest %s, want %s", d.partial, got, d.want)
		}
	}
}
