package rt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortPick is the partner choice as the traversal made it before the
// linear pass: normalize RTmerger's deltas, sort every candidate with the
// flavor's comparator, take the first.
func sortPick(cands []cand, f Flavor, weight float64) int {
	switch f {
	case RMerge:
		sort.Slice(cands, func(a, b int) bool { return cands[a].rd < cands[b].rd })
	case TMerge:
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].tc != cands[b].tc {
				return cands[a].tc < cands[b].tc
			}
			return cands[a].rd < cands[b].rd
		})
	default:
		fillCombined(cands, weight)
		sort.Slice(cands, func(a, b int) bool { return cands[a].combined < cands[b].combined })
	}
	return cands[0].j
}

// fillCombined sets RTmerger's combined scores: relational deltas
// normalized by the largest, weighted against the transaction cost.
func fillCombined(cands []cand, weight float64) {
	maxRD := 0.0
	for _, c := range cands {
		if c.rd > maxRD {
			maxRD = c.rd
		}
	}
	for idx := range cands {
		nrd := 0.0
		if maxRD > 0 {
			nrd = cands[idx].rd / maxRD
		}
		cands[idx].combined = weight*nrd + (1-weight)*cands[idx].tc
	}
}

// TestPickPartnerMatchesSort pins choosePartner's tie rule: on candidate
// sets drawn from a handful of values (so most minima are tied), in
// sizes on both sides of pdqsort's insertion-sort cutoff, the chosen
// partner is the one sort.Slice leaves first.
func TestPickPartnerMatchesSort(t *testing.T) {
	rdVals := []float64{0, 0.125, 0.25, 0.5, math.Copysign(0, -1)}
	tcVals := []float64{0, 0.25, 1}
	rng := rand.New(rand.NewSource(1))
	sets, ties, notFirst := 0, 0, 0
	for _, f := range []Flavor{RMerge, TMerge, RTMerge} {
		for _, weight := range []float64{0.5, 1, 0.3} {
			for trial := 0; trial < 400; trial++ {
				n := 1 + rng.Intn(60)
				if trial%10 == 0 {
					n = 100 + rng.Intn(400)
				}
				in := make([]cand, n)
				for x := range in {
					in[x] = cand{j: 3*x + 1, rd: rdVals[rng.Intn(len(rdVals))]}
					if f != RMerge {
						in[x].tc = tcVals[rng.Intn(len(tcVals))]
					}
				}
				if trial%50 == 7 {
					// No QI: every relational delta is 0/0.
					for x := range in {
						in[x].rd = math.NaN()
					}
				}
				want := sortPick(append([]cand(nil), in...), f, weight)
				got := append([]cand(nil), in...)
				if j := got[choosePartner(got, f, weight)].j; j != want {
					t.Fatalf("%v weight %v, %d candidates: chose cluster %d, sort.Slice puts %d first", f, weight, n, j, want)
				}
				sets++
				// How often the fallback matters: a tied minimum whose
				// sorted-first candidate is not the first in cluster order.
				first, tied := firstMin(in, f, weight)
				if tied {
					ties++
					if first != want {
						notFirst++
					}
				}
			}
		}
	}
	if ties == 0 || notFirst == 0 {
		t.Fatalf("%d sets, %d with a tied minimum, %d where sort.Slice does not keep the first: the sets no longer exercise the tie path", sets, ties, notFirst)
	}
	t.Logf("%d sets, %d with a tied minimum, %d where sort.Slice does not keep the first minimum", sets, ties, notFirst)
}

// firstMin returns the first candidate (in cluster order) holding the
// minimum under the flavor's order, and whether another candidate ties it.
func firstMin(in []cand, f Flavor, weight float64) (j int, tied bool) {
	cs := append([]cand(nil), in...)
	if f == RTMerge {
		fillCombined(cs, weight)
	}
	best := 0
	for x := 1; x < len(cs); x++ {
		if candLess(f, &cs[x], &cs[best]) {
			best = x
		}
	}
	for x := range cs {
		if x != best && !candLess(f, &cs[best], &cs[x]) {
			tied = true
		}
	}
	return cs[best].j, tied
}
