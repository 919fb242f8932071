package relational

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/hierarchy"
)

// chainColors are chainHierarchy's values, leaves and interior nodes.
var chainColors = []string{"red", "orange", "hot", "warm", "blue", "cyan", "cool", "grey", "neutral"}

// chainHierarchy builds a hierarchy with two unary chains: warm has the
// one child hot, and neutral the one child grey. A cluster whose LCA is
// hot moves to warm when a record holding warm joins, and one at grey to
// neutral, without its NCP changing, so such a move costs nothing.
func chainHierarchy(t testing.TB, attr string) *hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.NewBuilder(attr).
		Add("*", "warm").Add("warm", "hot").Add("hot", "red").Add("hot", "orange").
		Add("*", "cool").Add("cool", "blue").Add("cool", "cyan").
		Add("*", "neutral").Add("neutral", "grey").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// singleLeafHierarchy has one leaf under its root, so NCP is 0 on every
// node and a move from only to * is free too.
func singleLeafHierarchy(t testing.TB, attr string) *hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.NewBuilder(attr).Add("*", "only").Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// edgeDataset builds records over Color (chainHierarchy), One
// (singleLeafHierarchy) and Zip (auto-built, fanout 2) from "Color One
// Zip" triples.
func edgeDataset(t *testing.T, rows []string) (*dataset.Dataset, Options) {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "Color", Kind: dataset.Categorical},
		{Name: "One", Kind: dataset.Categorical},
		{Name: "Zip", Kind: dataset.Categorical},
	}, "")
	for _, row := range rows {
		if err := ds.AddRecord(dataset.Record{Values: strings.Fields(row)}); err != nil {
			t.Fatal(err)
		}
	}
	zip, err := hierarchy.AutoCategorical("Zip", ds.Column(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := map[string]*hierarchy.Hierarchy{
		"Color": chainHierarchy(t, "Color"),
		"One":   singleLeafHierarchy(t, "One"),
		"Zip":   zip,
	}
	return ds, Options{Hierarchies: hs}
}

// TestClusterBoundEdgeCases pins the bound-pruned absorption scan to the
// reference where its premises are thinnest: LCAs that move at zero cost
// along a unary chain (so a move must be found by node, not by cost),
// duplicate records (zero-cost absorptions that end the scan early) and
// a QI whose NCP is 0 on every node. The hand-written rows seed a
// cluster at red, then absorb its duplicate, hot, and warm at zero cost;
// the random rows give the bound records to skip.
func TestClusterBoundEdgeCases(t *testing.T) {
	fixed := []string{
		"red only z1", "red only z1", "hot only z1", "warm * z1",
		"grey only z2", "neutral only z2", "blue only z3", "cyan * z3",
		"red only z1", "orange only z4", "cool only z2", "grey * z2",
		"hot * z4", "warm only z3", "neutral * z1", "grey only z2",
	}
	sets := [][]string{fixed}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{9, 40, 120} {
		rows := make([]string, n)
		for r := range rows {
			rows[r] = fmt.Sprintf("%s %s z%d", chainColors[rng.Intn(len(chainColors))], []string{"only", "*"}[rng.Intn(2)], rng.Intn(6))
		}
		sets = append(sets, rows)
	}
	for _, rows := range sets {
		ds, opts := edgeDataset(t, rows)
		for k := 1; k <= len(rows) && k <= 12; k++ {
			t.Run(fmt.Sprintf("n%d/k%d", len(rows), k), func(t *testing.T) {
				opts.K = k
				checkClusterMatchesReference(t, ds, opts)
			})
		}
	}
}

// TestNCPMonotone checks the premise the absorption bound rests on: NCP
// never falls toward the root, so a cluster's per-QI cost only grows as
// its LCAs move up. It walks every node of the auto-built hierarchies of
// generated census data, the bundled curated hierarchies and the
// hand-built chains.
func TestNCPMonotone(t *testing.T) {
	var hh []*hierarchy.Hierarchy
	ds := gen.Census(gen.Config{Records: 300, Items: 8, Seed: 1})
	for _, fanout := range []int{2, 3, 4} {
		hs, err := gen.Hierarchies(ds, fanout)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			hh = append(hh, h)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "hierarchies", "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bundled hierarchies: %v", err)
	}
	for _, f := range files {
		h, err := hierarchy.LoadFile(strings.TrimSuffix(filepath.Base(f), ".csv"), f)
		if err != nil {
			t.Fatal(err)
		}
		hh = append(hh, h)
	}
	hh = append(hh, chainHierarchy(t, "Color"), singleLeafHierarchy(t, "One"))
	for _, h := range hh {
		ix := h.Index()
		for id := int32(1); id < int32(ix.Len()); id++ {
			node, parent := ix.Node(id), ix.Node(ix.Parent(id))
			if h.NCPNode(parent) < h.NCPNode(node) {
				t.Errorf("%s: NCP(%q) = %v below NCP of its child %q = %v", h.Attr, parent.Value, h.NCPNode(parent), node.Value, h.NCPNode(node))
			}
		}
	}
}

// TestClusterWideDomainMatchesReference pins the walked reload, which a
// row not built before the rows reach maxMemo floats takes, to the
// reference. Zip has 2,000 distinct values, so each Zip row holds 2,000
// floats, and the test checks that the seeds alone reach more Zip leaves
// than maxMemo floats hold.
func TestClusterWideDomainMatchesReference(t *testing.T) {
	const zips = 2000
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Zip", Kind: dataset.Categorical},
	}, "")
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < 3000; r++ {
		rec := dataset.Record{Values: []string{fmt.Sprint(18 + rng.Intn(40)), fmt.Sprintf("z%04d", rng.Intn(zips))}}
		if err := ds.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := gen.Hierarchies(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			opts := Options{K: k, Hierarchies: hs}
			view, err := opts.validate(ds)
			if err != nil {
				t.Fatal(err)
			}
			clusters, err := refBuildClusters(ds, view.qis, view.hh, opts)
			if err != nil {
				t.Fatal(err)
			}
			seeds := map[string]bool{}
			for _, cl := range clusters {
				seeds[ds.Records[cl.members[0]].Values[1]] = true
			}
			if len(seeds)*zips <= maxMemo {
				t.Fatalf("seeds reach %d Zip leaves, %d floats of rows: the rows never fill the memo", len(seeds), len(seeds)*zips)
			}
			checkClusterMatchesReference(t, ds, opts)
		})
	}
}
