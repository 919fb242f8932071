package relational

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/hierarchy"
)

// randomCut walks a cut from the root or the leaves through random
// Specialize and Generalize steps.
func randomCut(t *testing.T, rng *rand.Rand, h *hierarchy.Hierarchy) *hierarchy.Cut {
	t.Helper()
	c := hierarchy.NewCut(h)
	if rng.Intn(2) == 0 {
		c = hierarchy.NewLeafCut(h)
	}
	for step := rng.Intn(2 * h.Size()); step > 0; step-- {
		nodes := c.Nodes()
		nd := nodes[rng.Intn(len(nodes))]
		var err error
		switch {
		case rng.Intn(2) == 0 && !nd.IsLeaf():
			err = c.Specialize(nd.Value)
		case nd.Parent != nil:
			err = c.Generalize(nd.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sameSizes fails unless got and want hold the same class sizes, in any
// order.
func sameSizes(t *testing.T, got, want []int, what string) {
	t.Helper()
	got, want = append([]int(nil), got...), append([]int(nil), want...)
	sort.Ints(got)
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: class sizes %v, reference %v", what, got, want)
	}
}

// denseSlotsPerRecord mirrors the privacy counter's dense-table cap: a
// check whose radix is at most denseSlotsPerRecord*n counts through the
// slot table, a larger one through the map.
const denseSlotsPerRecord = 16

// checkCompact requires the view's last compaction to be order
// preserving and dense: on every QI, dictionary values publishing the
// same node share a rank, a smaller node gets a smaller rank, and the
// ranks are exactly 0..cards[i]-1. It returns the check's radix.
func checkCompact(t *testing.T, v *qiView, publish func(i int, node int32) int32) int {
	t.Helper()
	radix := 1
	for i, nodes := range v.nodes {
		used := make([]bool, v.cards[i])
		for a, na := range nodes {
			used[v.trans[i][a]] = true
			for b, nb := range nodes {
				pa, pb := publish(i, na), publish(i, nb)
				if ra, rb := v.trans[i][a], v.trans[i][b]; (pa < pb) != (ra < rb) || (pa == pb) != (ra == rb) {
					t.Fatalf("QI %d: nodes %d and %d got ranks %d and %d", i, pa, pb, ra, rb)
				}
			}
		}
		if slices.Contains(used, false) {
			t.Fatalf("QI %d: ranks %v do not cover 0..%d", i, v.trans[i], v.cards[i]-1)
		}
		radix *= v.cards[i]
	}
	return radix
}

// checkClassSizes compares the class sizes the QI view counts with the
// reference projectors' on rounds random QI subsets, each under a random
// level vector (levels past the hierarchy height included) and a random
// cut, and checks each count's compaction. It returns the counts' radixes.
func checkClassSizes(t *testing.T, ds *dataset.Dataset, opts Options, rng *rand.Rand, rounds int) []int {
	t.Helper()
	view, err := opts.validate(ds)
	if err != nil {
		t.Fatal(err)
	}
	qis, hh, n := view.qis, view.hh, ds.Len()
	var radixes []int
	for round := 0; round < rounds; round++ {
		var sub []int
		for len(sub) == 0 {
			for a := range qis {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
		}
		subQIs := make([]int, len(sub))
		subHH := make([]*hierarchy.Hierarchy, len(sub))
		levels := make([]int, len(sub))
		cuts := make([]*hierarchy.Cut, len(sub))
		for i, a := range sub {
			subQIs[i], subHH[i] = qis[a], hh[a]
			levels[i] = rng.Intn(hh[a].Height() + 2)
			cuts[i] = randomCut(t, rng, hh[a])
		}
		subView := view.sub(sub)
		sameSizes(t, subView.levelSizes(levels),
			refClassCounts(n, refLevelProjector(ds, subQIs, subHH, levels)),
			fmt.Sprintf("levels %v over QIs %v", levels, sub))
		radixes = append(radixes, checkCompact(t, subView, func(i int, node int32) int32 {
			return subView.hh[i].Index().GeneralizeLevels(node, levels[i])
		}))
		sameSizes(t, subView.cutSizes(cuts),
			refClassCounts(n, refCutProjector(ds, subQIs, cuts)),
			fmt.Sprintf("cuts over QIs %v", sub))
		radixes = append(radixes, checkCompact(t, subView, func(i int, node int32) int32 { return cuts[i].MapID(node) }))
	}
	return radixes
}

// generalizeSome replaces a random share of ds's QI cells with one of
// their hierarchy ancestors, so records carry interior values too: cuts
// then see values strictly above them, and levels cap at the root early.
func generalizeSome(t *testing.T, rng *rand.Rand, ds *dataset.Dataset, hs map[string]*hierarchy.Hierarchy) *dataset.Dataset {
	t.Helper()
	out := ds.Clone()
	for r := range out.Records {
		for a, attr := range out.Attrs {
			if rng.Intn(4) != 0 {
				continue
			}
			g, err := hs[attr.Name].GeneralizeLevels(out.Records[r].Values[a], 1+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			out.Records[r].Values[a] = g
		}
	}
	return out
}

// TestClassSizesMatchReference pins the class sizes behind every
// BottomUp, TopDown and Incognito k-check to the string-memo reference
// on generated data — leaf-valued and partly generalized — across sizes,
// seeds, fanouts and QI subsets, with and without the shared interning.
// Its checks count through both the dense slot table and the map.
func TestClassSizesMatchReference(t *testing.T) {
	paths := map[bool]int{}
	for _, records := range []int{1, 40, 300} {
		for _, seed := range []int64{1, 2} {
			for _, fanout := range []int{2, 3, 4} {
				base := gen.Census(gen.Config{Records: records, Items: 0, Seed: seed})
				hs, err := gen.Hierarchies(base, fanout)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				for _, ds := range []*dataset.Dataset{base, generalizeSome(t, rng, base, hs)} {
					for _, shared := range []bool{false, true} {
						opts := Options{K: 2, Hierarchies: hs}
						if shared {
							opts.Interned = dataset.Intern(ds)
						}
						for _, radix := range checkClassSizes(t, ds, opts, rng, 20) {
							paths[radix <= denseSlotsPerRecord*ds.Len()]++
						}
					}
				}
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Errorf("checks by path (dense: true): %v, want both", paths)
	}
}

// FuzzClassSizesMatchReference requires the class sizes behind the
// relational k-checks to agree with the reference on arbitrary small
// datasets (at most 64 records over at most three QIs, with
// gen.Hierarchies' auto hierarchies), with and without the shared
// interning. The QI subsets, level vectors and cuts come from a generator
// seeded by the input; small radixes count through the dense slot table,
// large ones through the map, and the corpus holds checks at the cap and
// one above it.
func FuzzClassSizesMatchReference(f *testing.F) {
	f.Add([]byte{0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 1, 40, 0, 0, 0, 1, 1, 1, 200, 17, 5})
	f.Add([]byte{9, 2, 63, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, _, fanout := fuzzDataset(data, false)
		if ds == nil {
			return
		}
		hs, err := gen.Hierarchies(ds, fanout)
		if err != nil {
			t.Skip(err)
		}
		h := fnv.New64a()
		h.Write(data)
		seed := int64(h.Sum64())
		for _, ix := range []*dataset.Indexed{nil, dataset.Intern(ds)} {
			checkClassSizes(t, ds, Options{K: 2, Hierarchies: hs, Interned: ix}, rand.New(rand.NewSource(seed)), 8)
		}
	})
}
