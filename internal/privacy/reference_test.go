package privacy

import (
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
)

// This file preserves the seed's string-keyed implementations of Partition
// and KMViolations verbatim. The production code now runs on the interned
// columnar core; the equivalence tests in equiv_test.go pin that the
// rewrite is observationally identical — same classes, same signatures,
// same violations in the same order.

// suppressed reports whether every QI cell of record r holds the
// suppression marker (never, with no QIs).
func suppressed(ds *dataset.Dataset, qis []int, r int) bool {
	for _, q := range qis {
		if ds.Records[r].Values[q] != generalize.Suppressed {
			return false
		}
	}
	return len(qis) > 0
}

// referencePartition is the seed Partition: signature keys built by
// string concatenation, groups collected in maps keyed by the joined
// string.
func referencePartition(ds *dataset.Dataset, qis []int) []Class {
	groups := make(map[string][]int)
	sigs := make(map[string][]string)
	var sb strings.Builder
	for r := range ds.Records {
		if suppressed(ds, qis, r) {
			continue
		}
		sb.Reset()
		sig := make([]string, len(qis))
		for i, q := range qis {
			v := ds.Records[r].Values[q]
			sig[i] = v
			sb.WriteString(v)
			sb.WriteByte('\x00')
		}
		key := sb.String()
		groups[key] = append(groups[key], r)
		if _, ok := sigs[key]; !ok {
			sigs[key] = sig
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Class, len(keys))
	for i, k := range keys {
		out[i] = Class{Signature: sigs[k], Records: groups[k]}
	}
	return out
}

// referenceKMViolations is the seed KMViolations: per-size support maps
// keyed by \x00-joined item names, rebuilt from scratch per level.
func referenceKMViolations(transactions [][]string, k, m, limit int) []Violation {
	var out []Violation
	if k <= 1 || m <= 0 {
		return nil
	}
	for size := 1; size <= m; size++ {
		support := make(map[string]int)
		first := make(map[string][]string)
		for _, tr := range transactions {
			if len(tr) < size {
				continue
			}
			refForEachSubset(tr, size, func(sub []string) {
				key := strings.Join(sub, "\x00")
				support[key]++
				if _, ok := first[key]; !ok {
					first[key] = append([]string(nil), sub...)
				}
			})
		}
		keys := make([]string, 0, len(support))
		for key, s := range support {
			if s < k {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			out = append(out, Violation{Itemset: first[key], Support: support[key]})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// refForEachSubset enumerates all size-k subsets of the sorted slice in
// lexicographic order (the seed's forEachSubset).
func refForEachSubset(items []string, k int, fn func([]string)) {
	n := len(items)
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sub := make([]string, k)
	for {
		for i, j := range idx {
			sub[i] = items[j]
		}
		fn(sub)
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
