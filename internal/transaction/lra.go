package transaction

import (
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/timing"
)

// LRA implements Local Recoding Anonymization (Terrovitis et al., VLDB J.
// 2011): transactions are partitioned horizontally into groups of similar
// baskets (here: sorted by basket content and chunked), and Apriori runs
// independently inside each partition with its own hierarchy cut. Each
// partition's output is k^m-anonymous, and because an itemset's global
// support is the sum of per-partition supports that are each zero or >= k,
// the union is k^m-anonymous too, while rare items in one partition no
// longer force generalization everywhere.
func LRA(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	items, err := opts.resolveItems(ds)
	if err != nil {
		return nil, err
	}
	parts := opts.Partitions
	if parts <= 0 {
		parts = 4
	}
	// Each partition must hold at least k transactions or its own Apriori
	// run cannot succeed.
	n := len(ds.Records)
	if parts > n/max(opts.K, 1) {
		parts = n / max(opts.K, 1)
	}
	if parts < 1 {
		parts = 1
	}
	// Sort record indices by basket content so similar baskets co-locate.
	// The join keys are precomputed once — building them inside the
	// comparator would re-join O(n log n) times.
	idx := make([]int, n)
	keys := make([]string, n)
	for i := range idx {
		idx[i] = i
		keys[i] = strings.Join(ds.Records[i].Items, "\x00")
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sw.Mark("partition")

	published := make([][]int32, n) // each record's basket, as its part's node IDs
	gens := 0
	for p := 0; p < parts; p++ {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		lo := p * n / parts
		hi := (p + 1) * n / parts
		if lo >= hi {
			continue
		}
		partIdx := idx[lo:hi]
		cut := hierarchy.NewLeafCut(opts.ItemHierarchy)
		st, g, err := repairCut(opts.Ctx, items, partIdx, cut, opts.K, opts.M, nil, pairTableCap)
		if err != nil {
			return nil, err
		}
		gens += g
		for t, r := range partIdx {
			published[r] = st.txs[t]
		}
	}
	ix := opts.ItemHierarchy.Index()
	out, dict := publishLabels(published, ix.Len(), ix.Value)
	sw.Mark("anonymize parts")
	return &Result{Items: out, ItemDict: dict, Phases: sw.Phases(), Generalizations: gens}, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
