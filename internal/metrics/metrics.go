// Package metrics implements the data utility indicators SECRETA reports:
// NCP/GCP information loss for relational attributes (Xu et al.), NCP and
// UL utility loss for transaction data (Terrovitis et al.; Loukides et al.
// COAT), discernibility, normalized average class size, suppression ratio,
// and the per-value frequency error plots of the Evaluation mode.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
)

// GCP computes the Generalized Certainty Penalty of an anonymized dataset:
// the average NCP over all QI cells. Suppressed cells and values missing
// from the hierarchy (e.g. arbitrary group labels) count as total loss (1).
// The result is in [0,1]; 0 means the data is unchanged.
func GCP(anon *dataset.Dataset, hs generalize.Set, qis []int) (float64, error) {
	if len(anon.Records) == 0 || len(qis) == 0 {
		return 0, nil
	}
	hh, err := hs.ForQIs(anon, qis)
	if err != nil {
		return 0, err
	}
	cols, dicts := dataset.InternColumns(anon, qis)
	return GCPColumns(len(anon.Records), cols, dicts, hh), nil
}

// GCPColumns is GCP over the interned QI columns of n records: record r
// holds the value dicts[i].Value(cols[i][r]) on QI i, priced under hh[i].
func GCPColumns(n int, cols [][]uint32, dicts []*dataset.Interner, hh []*hierarchy.Hierarchy) float64 {
	ncp := make([][]float64, len(dicts))
	for i, d := range dicts {
		ncp[i] = make([]float64, d.Len())
		for id, v := range d.Values() {
			ncp[i][id] = 1
			if c, err := hh[i].NCP(v); err == nil && v != generalize.Suppressed {
				ncp[i][id] = c
			}
		}
	}
	return MeanNCP(n, cols, ncp, nil)
}

// MeanNCP averages the cost of the QI cells of n records: record r's cell
// on QI i costs ncp[i][cols[i][r]], or 1 when suppressed(r) (nil: no
// record is), summed record by record and QI by QI.
func MeanNCP(n int, cols [][]uint32, ncp [][]float64, suppressed func(r int) bool) float64 {
	if n == 0 || len(cols) == 0 {
		return 0
	}
	total := 0.0
	for r := 0; r < n; r++ {
		if suppressed != nil && suppressed(r) {
			for range cols {
				total++
			}
			continue
		}
		for i, col := range cols {
			total += ncp[i][col[r]]
		}
	}
	return total / float64(n*len(cols))
}

// TransactionGCP computes the average information loss of the transaction
// attribute: for every item occurrence in the original dataset, the NCP of
// the generalized item covering it in the anonymized record, or 1 when the
// item disappeared (suppression). orig and anon must be record-aligned.
//
// Each published dictionary value is resolved to a hierarchy node ID
// once, and each original item once per occurrence; a published item
// covers an original one when it is the item itself or an ancestor — a
// preorder subtree-range test, exact on single-child chains too. An item
// outside the hierarchy covers only an equal string, and pricing one is
// an error.
func TransactionGCP(orig *dataset.Dataset, anon *dataset.Indexed, itemH *hierarchy.Hierarchy) (float64, error) {
	if len(orig.Records) != anon.N {
		return 0, fmt.Errorf("metrics: datasets not aligned (%d vs %d records)", len(orig.Records), anon.N)
	}
	ix := itemH.Index()
	id := func(v string) int32 {
		if id, ok := ix.ID(v); ok {
			return id
		}
		return -1
	}
	var vals []string
	var nodes []int32
	if anon.ItemDict != nil {
		vals = anon.ItemDict.Values()
		nodes = make([]int32, len(vals))
		for j, v := range vals {
			nodes[j] = id(v)
		}
	}
	occurrences := 0
	loss := 0.0
	for r := range orig.Records {
		var published []uint32
		if anon.Items != nil {
			published = anon.Items[r]
		}
		for _, it := range orig.Records[r].Items {
			occurrences++
			v := id(it)
			covered := -1
			for _, p := range published {
				g := nodes[p]
				if (v >= 0 && g >= 0 && g <= v && v < g+ix.SubtreeSize(g)) ||
					(v < 0 && g < 0 && vals[p] == it) {
					covered = int(p)
					break
				}
			}
			if covered < 0 || vals[covered] == "" {
				loss++ // suppressed
				continue
			}
			g := nodes[covered]
			if g < 0 { // Hierarchy.NCP words the unknown-value error
				_, err := itemH.NCP(vals[covered])
				return 0, err
			}
			loss += ix.NCP(g)
		}
	}
	if occurrences == 0 {
		return 0, nil
	}
	return loss / float64(occurrences), nil
}

// ItemGroup describes a generalized item as the set of original items it
// stands for, used by mapping-based algorithms (COAT, PCTA).
type ItemGroup struct {
	Label string
	Items []string
}

// UL computes COAT's utility loss of a generalization mapping over the
// anonymized dataset: for each generalized item g standing for a group I of
// original items, UL(g) = (2^|I| - 1) * w(g) * support(g), summed and
// normalized by (2^|D| - 1) * N so datasets of different sizes compare.
// Suppressed items (mapped to the empty label) are charged their original
// support at full group weight. Weights default to 1; exponents are capped
// to keep the arithmetic finite.
func UL(orig, anon *dataset.Dataset, mapping map[string]string, weights map[string]float64) (float64, error) {
	if len(orig.Records) != len(anon.Records) {
		return 0, fmt.Errorf("metrics: datasets not aligned (%d vs %d records)", len(orig.Records), len(anon.Records))
	}
	n := len(orig.Records)
	if n == 0 {
		return 0, nil
	}
	domain := orig.ItemDomain()
	if len(domain) == 0 {
		return 0, nil
	}
	groups := make(map[string][]string) // label -> original items
	for item, label := range mapping {
		groups[label] = append(groups[label], item)
	}
	weight := func(label string) float64 {
		if weights == nil {
			return 1
		}
		if w, ok := weights[label]; ok {
			return w
		}
		return 1
	}
	pow2 := func(k int) float64 {
		if k > 60 {
			k = 60
		}
		return math.Pow(2, float64(k)) - 1
	}
	// Support of each generalized label in the anonymized data.
	support := make(map[string]int)
	for r := range anon.Records {
		for _, g := range anon.Records[r].Items {
			support[g]++
		}
	}
	// Support of suppressed items in the original data.
	suppressedSupport := 0.0
	loss := 0.0
	for label, items := range groups {
		if label == "" {
			origSupport := make(map[string]int)
			for r := range orig.Records {
				for _, it := range orig.Records[r].Items {
					origSupport[it]++
				}
			}
			for _, it := range items {
				suppressedSupport += pow2(1) * float64(origSupport[it])
			}
			continue
		}
		if len(items) <= 1 {
			continue // identity mapping loses nothing
		}
		loss += pow2(len(items)) * weight(label) * float64(support[label])
	}
	loss += suppressedSupport
	norm := pow2(len(domain)) * float64(n)
	if norm == 0 {
		return 0, nil
	}
	return loss / norm, nil
}

// DiscernibilityClasses computes the discernibility metric over a
// partition of n records into equivalence classes: each record is charged
// the size of its class; suppressed records, in no class, are charged n.
func DiscernibilityClasses(n int, classes []privacy.Class) float64 {
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range classes {
		sum += float64(len(c.Records) * len(c.Records))
	}
	sum += float64((n - covered(classes)) * n) // suppressed records
	return sum
}

// CAVGClasses computes the normalized average equivalence class size
// metric over a partition: (records in classes / classes) / k. Values
// near 1 indicate classes close to the minimum size k.
func CAVGClasses(classes []privacy.Class, k int) float64 {
	if k <= 0 || len(classes) == 0 {
		return 0
	}
	return float64(covered(classes)) / float64(len(classes)) / float64(k)
}

// SuppressionRatioClasses returns the fraction of n records suppressed,
// the records in none of the classes.
func SuppressionRatioClasses(n int, classes []privacy.Class) float64 {
	if n == 0 {
		return 0
	}
	return float64(n-covered(classes)) / float64(n)
}

// covered counts the records in the classes.
func covered(classes []privacy.Class) int {
	n := 0
	for _, c := range classes {
		n += len(c.Records)
	}
	return n
}

// ValueError is one bar of the frequency-error plots (Evaluation mode,
// plots (c) and (d) of Figure 3): a value, its original frequency, the
// frequency estimated from the anonymized data, and the relative error.
type ValueError struct {
	Value    string
	Original float64
	Estimate float64
	RelError float64
}

// ItemFrequencyError compares original item frequencies against the
// frequencies reconstructed from the anonymized data, spreading each
// generalized item's support uniformly over the leaves it covers (items not
// in the hierarchy count only for themselves). Results are sorted by value.
func ItemFrequencyError(orig, anon *dataset.Dataset, itemH *hierarchy.Hierarchy) []ValueError {
	origCount := make(map[string]float64)
	for r := range orig.Records {
		for _, it := range orig.Records[r].Items {
			origCount[it]++
		}
	}
	est := make(map[string]float64)
	for r := range anon.Records {
		for _, g := range anon.Records[r].Items {
			n := itemH.Node(g)
			if n == nil || n.IsLeaf() {
				est[g]++
				continue
			}
			leaves := n.Leaves()
			share := 1.0 / float64(len(leaves))
			for _, leaf := range leaves {
				est[leaf] += share
			}
		}
	}
	return valueErrors(origCount, est)
}

// AttributeFrequencyError compares original value frequencies of relational
// attribute qi against frequencies reconstructed from the anonymized data,
// spreading generalized values uniformly over covered leaves.
func AttributeFrequencyError(orig, anon *dataset.Dataset, h *hierarchy.Hierarchy, qi int) []ValueError {
	origCount := make(map[string]float64)
	for r := range orig.Records {
		origCount[orig.Records[r].Values[qi]]++
	}
	est := make(map[string]float64)
	for r := range anon.Records {
		v := anon.Records[r].Values[qi]
		if v == generalize.Suppressed {
			continue
		}
		n := h.Node(v)
		if n == nil || n.IsLeaf() {
			est[v]++
			continue
		}
		leaves := n.Leaves()
		share := 1.0 / float64(len(leaves))
		for _, leaf := range leaves {
			est[leaf] += share
		}
	}
	return valueErrors(origCount, est)
}

func valueErrors(orig, est map[string]float64) []ValueError {
	vals := make([]string, 0, len(orig))
	for v := range orig {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	out := make([]ValueError, 0, len(vals))
	for _, v := range vals {
		o, e := orig[v], est[v]
		denom := o
		if denom < 1 {
			denom = 1
		}
		out = append(out, ValueError{
			Value:    v,
			Original: o,
			Estimate: e,
			RelError: math.Abs(e-o) / denom,
		})
	}
	return out
}

// GeneralizedFrequencies returns the frequency histogram of a relational
// attribute in the anonymized dataset — plot (c) of the Evaluation mode.
func GeneralizedFrequencies(anon *dataset.Dataset, qi int) []dataset.Frequency {
	return anon.Histogram(qi)
}
