package relational

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
)

// naiveFullDomain finds the best (min-GCP) minimal k-anonymous full-domain
// node by checking every lattice node without any pruning — the reference
// Incognito's prunings must agree with. It shares no code with Incognito's
// search: it enumerates the nodes recursively, keeps the ones no other
// passing node lies below, and breaks GCP ties by level sum, then by the
// comma-joined levels compared as strings.
func naiveFullDomain(t *testing.T, heights []int, check func(node []int) bool, gcp func(node []int) float64) ([]int, float64) {
	t.Helper()
	var anonymous [][]int
	var enumerate func(prefix []int)
	enumerate = func(prefix []int) {
		if len(prefix) == len(heights) {
			if check(prefix) {
				anonymous = append(anonymous, slices.Clone(prefix))
			}
			return
		}
		for l := 0; l <= heights[len(prefix)]; l++ {
			enumerate(append(prefix, l))
		}
	}
	enumerate(nil)
	if len(anonymous) == 0 {
		t.Fatal("naive scan found no k-anonymous node")
	}
	below := func(b, a []int) bool { // b is a strict specialization of a
		for i := range a {
			if b[i] > a[i] {
				return false
			}
		}
		return !slices.Equal(a, b)
	}
	var minimal [][]int
	for _, a := range anonymous {
		if !slices.ContainsFunc(anonymous, func(b []int) bool { return below(b, a) }) {
			minimal = append(minimal, a)
		}
	}
	sum := func(node []int) int {
		s := 0
		for _, l := range node {
			s += l
		}
		return s
	}
	key := func(node []int) string {
		parts := make([]string, len(node))
		for i, l := range node {
			parts[i] = strconv.Itoa(l)
		}
		return strings.Join(parts, ",")
	}
	sort.Slice(minimal, func(i, j int) bool {
		if si, sj := sum(minimal[i]), sum(minimal[j]); si != sj {
			return si < sj
		}
		return key(minimal[i]) < key(minimal[j])
	})
	best := minimal[0]
	bestGCP := gcp(best)
	for _, node := range minimal[1:] {
		if g := gcp(node); g < bestGCP {
			best, bestGCP = node, g
		}
	}
	return best, bestGCP
}

// TestIncognitoMatchesNaive is the ablation cross-check: subset + roll-up
// pruning must return a node with the same (minimal) GCP as the exhaustive
// lattice scan.
func TestIncognitoMatchesNaive(t *testing.T) {
	ds, hs := smallData(t)
	qis, err := ds.QIIndices(nil)
	if err != nil {
		t.Fatal(err)
	}
	hh, err := hs.ForQIs(ds, qis)
	if err != nil {
		t.Fatal(err)
	}
	heights := make([]int, len(qis))
	for i, h := range hh {
		heights[i] = h.Height()
	}
	for _, k := range []int{2, 5, 15} {
		res, err := Incognito(ds, Options{K: k, Hierarchies: hs})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		gIncognito := refGCP(t, res.Anonymized.Materialize(), hs, qis)
		check := func(node []int) bool {
			cand, err := generalize.FullDomain(ds, hs, qis, node)
			if err != nil {
				t.Fatal(err)
			}
			return len(naiveSmallRecords(cand, qis, k)) == 0
		}
		gcp := func(node []int) float64 {
			cand, err := generalize.FullDomain(ds, hs, qis, node)
			if err != nil {
				t.Fatal(err)
			}
			return refGCP(t, cand, hs, qis)
		}
		_, gNaive := naiveFullDomain(t, heights, check, gcp)
		if gIncognito != gNaive {
			t.Errorf("k=%d: Incognito GCP %.6f != naive %.6f", k, gIncognito, gNaive)
		}
	}
}

// naiveSmallRecords lists the records of cand whose class — records with
// the same QI values, joined into one string — is smaller than k: a
// brute-force k-check that shares no code with the class counter.
func naiveSmallRecords(cand *dataset.Dataset, qis []int, k int) []int {
	sig := func(r int) string {
		vals := make([]string, len(qis))
		for i, q := range qis {
			vals[i] = cand.Records[r].Values[q]
		}
		return strings.Join(vals, "\x00")
	}
	count := make(map[string]int)
	for r := range cand.Records {
		count[sig(r)]++
	}
	var small []int
	for r := range cand.Records {
		if count[sig(r)] < k {
			small = append(small, r)
		}
	}
	return small
}

// FuzzIncognitoMatchesNaive requires Incognito to publish exactly what
// the exhaustive lattice scan publishes — the same Levels and the same
// records — on generated census data of at most 64 records, leaf-valued
// or partly generalized, for k from 1 to 8 and a suppression budget of 0
// or 10%. The scan checks every node with naiveSmallRecords, suppresses
// the small classes of the node it picks the same way, and prices nodes
// with refGCP; when not even the top node qualifies, Incognito must
// fail.
func FuzzIncognitoMatchesNaive(f *testing.F) {
	f.Add([]byte{5, 0, 40, 0, 0, 1, 2, 3})
	f.Add([]byte{3, 1, 63, 2, 1, 9, 9})
	f.Add([]byte{7, 3, 20, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		k := 1 + int(data[0]%8)
		supp := 0.0
		if data[1]&1 != 0 {
			supp = 0.1
		}
		n := 1 + int(data[2]%64)
		fanout := 2 + int(data[3]%3)
		qiNames := [][]string{nil, {"Age", "Zip"}, {"Gender", "Education", "Marital"}}[int(data[4])%3]
		h := fnv.New64a()
		h.Write(data)
		seed := int64(h.Sum64())
		ds := gen.Census(gen.Config{Records: n, Items: 0, Seed: seed})
		hs, err := gen.Hierarchies(ds, fanout)
		if err != nil {
			t.Skip(err)
		}
		if data[1]&2 != 0 {
			ds = generalizeSome(t, rand.New(rand.NewSource(seed)), ds, hs)
		}
		qis, err := ds.QIIndices(qiNames)
		if err != nil {
			t.Fatal(err)
		}
		hh, err := hs.ForQIs(ds, qis)
		if err != nil {
			t.Fatal(err)
		}
		heights := make([]int, len(qis))
		for i, h := range hh {
			heights[i] = h.Height()
		}
		budget := int(supp * float64(n))
		publish := func(node []int) (*dataset.Dataset, int) {
			cand, err := generalize.FullDomain(ds, hs, qis, node)
			if err != nil {
				t.Fatal(err)
			}
			small := naiveSmallRecords(cand, qis, k)
			if budget > 0 {
				for _, r := range small {
					generalize.SuppressRecord(cand, qis, r)
				}
			}
			return cand, len(small)
		}
		res, err := Incognito(ds, Options{K: k, QIs: qiNames, Hierarchies: hs, MaxSuppression: supp})
		if _, small := publish(heights); small > budget {
			if err == nil {
				t.Fatalf("Incognito published levels %v where no node is k-anonymous", res.Levels)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		best, _ := naiveFullDomain(t, heights,
			func(node []int) bool {
				_, small := publish(node)
				return small <= budget
			},
			func(node []int) float64 {
				cand, _ := publish(node)
				return refGCP(t, cand, hs, qis)
			})
		want, _ := publish(best)
		if !reflect.DeepEqual(res.Levels, best) {
			t.Fatalf("Incognito levels %v, naive %v", res.Levels, best)
		}
		anon := res.Anonymized.Materialize()
		for r := range want.Records {
			if !reflect.DeepEqual(anon.Records[r].Values, want.Records[r].Values) {
				t.Fatalf("record %d: Incognito published %q, naive %q", r, anon.Records[r].Values, want.Records[r].Values)
			}
		}
	})
}
