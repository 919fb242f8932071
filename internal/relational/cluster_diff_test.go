package relational

import (
	"fmt"
	"strconv"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

// sameClusters fails unless got and want hold the same clusters in the
// same order, each with the same members in the same order and the same
// LCA node (by identity) on every QI.
func sameClusters(t *testing.T, got, want []*clusterState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d clusters, reference has %d", len(got), len(want))
	}
	for c := range want {
		g, w := got[c], want[c]
		if fmt.Sprint(g.members) != fmt.Sprint(w.members) {
			t.Fatalf("cluster %d members %v, reference %v", c, g.members, w.members)
		}
		for i := range w.lca {
			if g.lca[i] != w.lca[i] {
				t.Fatalf("cluster %d QI %d LCA %q, reference %q", c, i, g.lca[i].Value, w.lca[i].Value)
			}
		}
	}
}

// checkClusterMatchesReference runs the reference once and the table-driven
// clustering with and without the shared interning, requiring identical
// clusters from all three.
func checkClusterMatchesReference(t *testing.T, ds *dataset.Dataset, opts Options) {
	t.Helper()
	var want []*clusterState
	for _, ix := range []*dataset.Indexed{nil, dataset.Intern(ds)} {
		opts.Interned = ix
		view, err := opts.validate(ds)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if want, err = refBuildClusters(ds, view.qis, view.hh, opts); err != nil {
				t.Fatal(err)
			}
		}
		got, err := buildClusters(view, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameClusters(t, got, want)
	}
}

// TestClusterMatchesReference pins the table-driven absorption scan to the
// pointer-walking reference on generated census data across sizes, seeds,
// hierarchy fanouts, k values and QI selections.
func TestClusterMatchesReference(t *testing.T) {
	sizes := []struct {
		records int
		seeds   []int64
	}{
		{50, []int64{1, 2, 3}},
		{300, []int64{1, 2, 3}},
		{2000, []int64{1, 2}},
	}
	qiSets := [][]string{nil, {"Zip", "Age"}}
	for _, size := range sizes {
		for _, seed := range size.seeds {
			ds := gen.Census(gen.Config{Records: size.records, Items: 8, Seed: seed})
			for _, fanout := range []int{2, 4} {
				hs, err := gen.Hierarchies(ds, fanout)
				if err != nil {
					t.Fatal(err)
				}
				for _, qis := range qiSets {
					if size.records == 2000 && qis != nil {
						continue // the QI subset is covered at the smaller sizes
					}
					for _, k := range []int{2, 3, 5, 8, 10, 12} {
						name := fmt.Sprintf("n%d/seed%d/f%d/qis%d/k%d", size.records, seed, fanout, len(qis), k)
						t.Run(name, func(t *testing.T) {
							checkClusterMatchesReference(t, ds, Options{K: k, QIs: qis, Hierarchies: hs})
						})
					}
				}
			}
		}
	}
}

// fuzzDataset turns fuzz bytes into a small census-shaped dataset (one
// numeric and two categorical QIs over small domains), a k and a fanout.
// Every byte after the three parameter bytes picks one cell value. With
// chain set, Color draws from chainColors, the values of chainHierarchy,
// interior nodes included.
func fuzzDataset(data []byte, chain bool) (*dataset.Dataset, int, int) {
	if len(data) < 3 {
		return nil, 0, 0
	}
	k := 1 + int(data[0]%12)
	fanout := 2 + int(data[1]%3)
	n := 1 + int(data[2]%64)
	cells := data[3:]
	if len(cells) == 0 {
		return nil, 0, 0
	}
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Color", Kind: dataset.Categorical},
		{Name: "Zip", Kind: dataset.Categorical},
	}, "")
	colors := []string{"red", "green", "blue", "cyan", "grey"}
	if chain {
		colors = chainColors
	}
	for r := 0; r < n; r++ {
		cell := func(a int) byte { return cells[(3*r+a)%len(cells)] }
		rec := dataset.Record{Values: []string{
			strconv.Itoa(18 + int(cell(0)%40)),
			colors[int(cell(1))%len(colors)],
			fmt.Sprintf("z%02d", cell(2)%17),
		}}
		if err := ds.AddRecord(rec); err != nil {
			panic(err)
		}
	}
	return ds, k, fanout
}

// FuzzClusterMatchesReference requires the table-driven clustering to
// agree with the reference on arbitrary small datasets and k, with and
// without the shared interning. Inputs whose fanout byte has the high bit
// set publish Color through chainHierarchy, where an LCA can move at zero
// cost.
func FuzzClusterMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 1, 40, 0, 0, 0, 1, 1, 1, 200, 17, 5})
	f.Add([]byte{7, 2, 63, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		chain := len(data) > 1 && data[1]&0x80 != 0
		ds, k, fanout := fuzzDataset(data, chain)
		if ds == nil {
			return
		}
		hs, err := gen.Hierarchies(ds, fanout)
		if err != nil {
			t.Skip(err)
		}
		if chain {
			hs["Color"] = chainHierarchy(t, "Color")
		}
		checkClusterMatchesReference(t, ds, Options{K: k, Hierarchies: hs})
	})
}
