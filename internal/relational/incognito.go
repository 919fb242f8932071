package relational

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/metrics"
	"secreta/internal/timing"
)

// Incognito implements full-domain k-anonymity (LeFevre et al., SIGMOD
// 2005). It searches the lattice of per-attribute generalization levels for
// all minimal k-anonymous nodes, using the two prunings of the original
// algorithm:
//
//   - subset pruning: a node can only be k-anonymous if the projection of
//     its level vector onto every proper attribute subset is k-anonymous,
//     checked by processing subsets in increasing size (the candidate-graph
//     join of the paper, expressed as a filter);
//   - roll-up (generalization) pruning: once a node is k-anonymous, all its
//     dominating nodes are k-anonymous and need no checks.
//
// Among the minimal k-anonymous full-dimension nodes it returns the one
// with the lowest GCP.
func Incognito(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	view, err := opts.validate(ds)
	if err != nil {
		return nil, err
	}
	sw.Mark("setup")

	n := len(ds.Records)
	budget := int(opts.MaxSuppression * float64(n))
	minimal, checked, err := view.incognitoSearch(opts, budget)
	if err != nil {
		return nil, err
	}
	sw.Mark("lattice search")
	if len(minimal) == 0 {
		return nil, fmt.Errorf("incognito: no k-anonymous generalization exists for k=%d (dataset has %d records)", opts.K, n)
	}

	// Score every minimal node on the view and materialize only the one
	// with the lowest GCP; the strict < keeps the first of equal scores.
	bestIdx, bestGCP := -1, 2.0
	sc := view.newScorer()
	for i, node := range minimal {
		if g := sc.score(node, opts.K, budget); g < bestGCP {
			bestIdx, bestGCP = i, g
		}
	}
	levels := minimal[bestIdx]
	anon := view.publish(func(i, r int) int32 {
		return view.hh[i].Index().GeneralizeLevels(view.nodes[i][view.cols[i][r]], levels[i])
	}, sc.suppressed(levels, opts.K, budget))
	sw.Mark("recode")
	return &Result{
		Anonymized:   anon,
		Phases:       sw.Phases(),
		Levels:       levels,
		NodesChecked: checked,
	}, nil
}

// gcpScorer scores full-domain nodes on a run's QI view: the GCP
// metrics.GCP reports for the candidate Incognito publishes at the node,
// computed without building it. Its tables are reused across nodes.
type gcpScorer struct {
	v     *qiView
	ncp   [][]float64 // ncp[i][id]: the loss of QI i's dictionary value id at the node
	class []int32     // class[r]: record r's class number at the node
}

// newScorer allocates a scorer's tables for v's dictionaries and records.
func (v *qiView) newScorer() *gcpScorer {
	sc := &gcpScorer{v: v, ncp: make([][]float64, len(v.cols)), class: make([]int32, v.n)}
	for i, nodes := range v.nodes {
		sc.ncp[i] = make([]float64, len(nodes))
	}
	return sc
}

// score returns metrics.GCP of ds generalized levels[i] steps up QI i's
// hierarchy, after suppressing the records of classes smaller than k when
// budget > 0, bit for bit: each cell costs the NCP of its published node
// (1 for a node valued generalize.Suppressed, as metrics.GCP prices it),
// a suppressed record 1 per QI, and metrics.MeanNCP sums the costs in
// metrics.GCP's order.
func (sc *gcpScorer) score(levels []int, k, budget int) float64 {
	v := sc.v
	for i, nodes := range v.nodes {
		ix := v.hh[i].Index()
		for id, node := range nodes {
			g := ix.GeneralizeLevels(node, levels[i])
			if ix.Value(g) == generalize.Suppressed {
				sc.ncp[i][id] = 1
			} else {
				sc.ncp[i][id] = ix.NCP(g)
			}
		}
	}
	return metrics.MeanNCP(v.n, v.cols, sc.ncp, sc.suppressed(levels, k, budget))
}

// suppressed reports the records Incognito suppresses at the node: with
// budget > 0, those of classes smaller than k; nil, none, otherwise. It
// holds until the view's next count.
func (sc *gcpScorer) suppressed(levels []int, k, budget int) func(r int) bool {
	if budget <= 0 {
		return nil
	}
	sizes := sc.v.levelClasses(levels, sc.class)
	return func(r int) bool { return sizes[sc.class[r]] < k }
}

// incognitoSearch walks the lattice of every QI subset in increasing
// size and returns the minimal k-anonymous full-dimension nodes, sorted by
// sortMinimal, with the number of nodes whose k-anonymity it tested. A
// node qualifies when at most budget records fall in classes smaller than
// k.
//
// Each subset keeps one bitset of its k-anonymous nodes, indexed by node
// rank: the level vector read as a mixed-radix number, the subset's first
// QI most significant, so a predecessor's or projection's rank is computed
// in place. The walk visits ranks in increasing order; lowering one level
// lowers the rank, so every direct predecessor is final before the nodes
// above it. Roll-up marks every node with a k-anonymous predecessor, so
// the set is closed under generalization, and the nodes that passed their
// own check are exactly its minimal nodes.
func (v *qiView) incognitoSearch(opts Options, budget int) ([][]int, int, error) {
	q := len(v.qis)
	radix := make([]int, q)
	for i, h := range v.hh {
		radix[i] = h.Height() + 1
	}
	anon := make([][]uint64, 1<<q)
	checked := 0
	var minimal [][]int
	for _, sub := range enumerateSubsets(q) {
		mask, size := 0, 1
		for _, a := range sub {
			mask |= 1 << a
			size *= radix[a]
		}
		bits := make([]uint64, (size+63)/64)
		anon[mask] = bits
		subView := v.sub(sub)
		node := make([]int, len(sub))
		for r := 0; r < size; r++ {
			// Poll per node, so a cancelled job stops mid-subset.
			if err := opts.interrupted(); err != nil {
				return nil, 0, err
			}
			if r > 0 {
				// Advance the odometer to rank r.
				for j := len(node) - 1; ; j-- {
					if node[j]++; node[j] < radix[sub[j]] {
						break
					}
					node[j] = 0
				}
			}
			switch {
			case predecessorAnonymous(bits, node, sub, radix, r):
				setBit(bits, r)
			case !projectionsAnonymous(anon, node, sub, radix, mask):
			default:
				checked++
				if suppressionNeeded(subView.levelSizes(node), opts.K) <= budget {
					setBit(bits, r)
					if len(sub) == q {
						minimal = append(minimal, slices.Clone(node))
					}
				}
			}
		}
	}
	sortMinimal(minimal)
	return minimal, checked, nil
}

// sortMinimal orders nodes by level sum, then by their comma-joined
// decimal levels compared as strings ("10,1" before "2,9"). The GCP
// choice keeps the first of equal scores, so this order decides which
// tied node Incognito publishes.
func sortMinimal(nodes [][]int) {
	key := func(b []byte, node []int) (int, []byte) {
		sum := 0
		for i, l := range node {
			if i > 0 {
				b = append(b, ',')
			}
			sum += l
			b = strconv.AppendInt(b, int64(l), 10)
		}
		return sum, b
	}
	slices.SortFunc(nodes, func(a, b []int) int {
		var bufA, bufB [64]byte
		sa, ka := key(bufA[:0], a)
		sb, kb := key(bufB[:0], b)
		return cmp.Or(cmp.Compare(sa, sb), bytes.Compare(ka, kb))
	})
}

// rank returns node's rank in the lattice over sub, leaving out position
// skip (-1: none) — the rank of its projection onto the rest of sub.
func rank(node, sub, radix []int, skip int) int {
	r := 0
	for j, a := range sub {
		if j != skip {
			r = r*radix[a] + node[j]
		}
	}
	return r
}

// predecessorAnonymous reports whether a node one level below node (rank
// r) is marked in bits — the roll-up property.
func predecessorAnonymous(bits []uint64, node, sub, radix []int, r int) bool {
	stride := 1
	for j := len(sub) - 1; j >= 0; j-- {
		if node[j] > 0 && hasBit(bits, r-stride) {
			return true
		}
		stride *= radix[sub[j]]
	}
	return false
}

// projectionsAnonymous reports whether node's projection onto every
// proper subset of sub one QI smaller is marked k-anonymous — the subset
// property.
func projectionsAnonymous(anon [][]uint64, node, sub, radix []int, mask int) bool {
	if len(sub) == 1 {
		return true
	}
	for drop := range sub {
		if !hasBit(anon[mask&^(1<<sub[drop])], rank(node, sub, radix, drop)) {
			return false
		}
	}
	return true
}

func setBit(bits []uint64, i int)      { bits[i>>6] |= 1 << (i & 63) }
func hasBit(bits []uint64, i int) bool { return bits[i>>6]&(1<<(i&63)) != 0 }

// enumerateSubsets lists all non-empty subsets of {0..n-1} ordered by size
// (Incognito's iteration order), each subset sorted ascending.
func enumerateSubsets(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<uint(n); mask++ {
		var s []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s = append(s, i)
			}
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}
