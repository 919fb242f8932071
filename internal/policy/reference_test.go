package policy

import (
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/privacy"
)

// This file preserves PrivacyFrequent as it was before it moved onto the
// privacy package's shared itemset counter: supports in one map keyed by
// \x00-joined item names. TestPrivacyFrequentMatchesReference pins the
// production function to it on data whose item names contain no NUL
// (the reference splits its keys on NUL, so such names break it).

func referencePrivacyFrequent(ds *dataset.Dataset, minSupport, maxSize int) []PrivacyConstraint {
	if maxSize < 1 {
		maxSize = 1
	}
	if minSupport < 1 {
		minSupport = 1
	}
	trs := privacy.Transactions(ds, nil)
	support := make(map[string]int)
	for size := 1; size <= maxSize; size++ {
		for _, tr := range trs {
			refForEachSubset(tr, size, func(sub []string) {
				support[strings.Join(sub, "\x00")]++
			})
		}
	}
	keys := make([]string, 0, len(support))
	for k, s := range support {
		if s >= minSupport {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		ni, nj := strings.Count(keys[i], "\x00"), strings.Count(keys[j], "\x00")
		if ni != nj {
			return ni < nj
		}
		return keys[i] < keys[j]
	})
	out := make([]PrivacyConstraint, len(keys))
	for i, k := range keys {
		out[i] = PrivacyConstraint{Items: strings.Split(k, "\x00")}
	}
	return out
}

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
