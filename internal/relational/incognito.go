package relational

import (
	"fmt"
	"sort"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/lattice"
	"secreta/internal/metrics"
	"secreta/internal/privacy"
	"secreta/internal/timing"
)

// metricsGCP is a local alias keeping the algorithm body readable.
func metricsGCP(ds *dataset.Dataset, hs generalize.Set, qis []int) (float64, error) {
	return metrics.GCP(ds, hs, qis)
}

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
	qis := view.qis
	heights := make([]int, len(qis))
	for i, h := range view.hh {
		heights[i] = h.Height()
	}
	sw.Mark("setup")

	// anon[subsetKey][nodeKey] records k-anonymous level vectors per
	// attribute subset (vectors indexed by subset position).
	anon := make(map[string]map[string]bool)
	checked := 0

	n := len(ds.Records)
	budget := int(opts.MaxSuppression * float64(n))
	subsets := enumerateSubsets(len(qis))
	for _, sub := range subsets {
		subKey := subsetKey(sub)
		anon[subKey] = make(map[string]bool)
		subView := view.sub(sub)
		subHeights := make([]int, len(sub))
		for i, a := range sub {
			subHeights[i] = heights[a]
		}
		lat, err := lattice.New(subHeights)
		if err != nil {
			return nil, err
		}
		// WalkCtx polls the context between lattice nodes, so a cancelled
		// job stops mid-expansion instead of finishing the subset.
		if err := lat.WalkCtx(opts.Ctx, func(node []int) bool {
			key := lattice.Key(node)
			// Roll-up pruning: a specialization already k-anonymous
			// implies this node is too.
			for _, pred := range lat.Predecessors(node) {
				if anon[subKey][lattice.Key(pred)] {
					anon[subKey][key] = true
					return true
				}
			}
			// Subset pruning: every (size-1) projection must be
			// k-anonymous.
			if !subsetProjectionsAnonymous(anon, sub, node) {
				return true
			}
			checked++
			if suppressionNeeded(subView.levelSizes(node), opts.K) <= budget {
				anon[subKey][key] = true
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	sw.Mark("lattice search")

	fullKey := subsetKey(subsets[len(subsets)-1])
	var candidates [][]int
	for key := range anon[fullKey] {
		candidates = append(candidates, parseKey(key))
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("incognito: no k-anonymous generalization exists for k=%d (dataset has %d records)", opts.K, n)
	}
	minimal := lattice.MinimalNodes(candidates)

	// Pick the minimal node with the lowest GCP.
	bestIdx := -1
	bestGCP := 2.0
	var bestDS *dataset.Dataset
	for i, node := range minimal {
		cand, err := generalize.FullDomain(ds, opts.Hierarchies, qis, node)
		if err != nil {
			return nil, err
		}
		if budget > 0 {
			suppressSmallClasses(cand, qis, opts.K)
		}
		g, err := metricsGCP(cand, opts.Hierarchies, qis)
		if err != nil {
			return nil, err
		}
		if g < bestGCP {
			bestGCP = g
			bestIdx = i
			bestDS = cand
		}
	}
	sw.Mark("recode")
	return &Result{
		Anonymized:   bestDS,
		Phases:       sw.Phases(),
		Levels:       minimal[bestIdx],
		NodesChecked: checked,
	}, nil
}

// suppressSmallClasses suppresses every record whose equivalence class is
// smaller than k — the suppression half of "k-anonymity with suppression".
func suppressSmallClasses(ds *dataset.Dataset, qis []int, k int) {
	for _, cl := range privacy.Partition(ds, qis) {
		if len(cl.Records) >= k {
			continue
		}
		for _, r := range cl.Records {
			generalize.SuppressRecord(ds, qis, r)
		}
	}
}

// subsetProjectionsAnonymous checks that every proper (size-1) subset
// projection of node is marked k-anonymous.
func subsetProjectionsAnonymous(anon map[string]map[string]bool, sub []int, node []int) bool {
	if len(sub) == 1 {
		return true
	}
	projSub := make([]int, 0, len(sub)-1)
	projNode := make([]int, 0, len(sub)-1)
	for drop := range sub {
		projSub = projSub[:0]
		projNode = projNode[:0]
		for i := range sub {
			if i == drop {
				continue
			}
			projSub = append(projSub, sub[i])
			projNode = append(projNode, node[i])
		}
		if !anon[subsetKey(projSub)][lattice.Key(projNode)] {
			return false
		}
	}
	return true
}

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

func subsetKey(sub []int) string { return lattice.Key(sub) }

func parseKey(key string) []int {
	var out []int
	v := 0
	seen := false
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			if seen {
				out = append(out, v)
			}
			v = 0
			seen = false
			continue
		}
		v = v*10 + int(key[i]-'0')
		seen = true
	}
	return out
}
