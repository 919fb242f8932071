// Package generalize implements recoding operators on string datasets:
// full-domain recoding by lattice level vectors and record suppression.
package generalize

import (
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
)

// Suppressed is the value standing for a suppressed cell or item.
const Suppressed = "*"

// Set maps attribute names to their hierarchies.
type Set map[string]*hierarchy.Hierarchy

// ForQIs resolves hierarchies for the given QI column indices, failing when
// one is missing.
func (s Set) ForQIs(ds *dataset.Dataset, qis []int) ([]*hierarchy.Hierarchy, error) {
	out := make([]*hierarchy.Hierarchy, len(qis))
	for i, q := range qis {
		name := ds.Attrs[q].Name
		h := s[name]
		if h == nil {
			return nil, fmt.Errorf("generalize: no hierarchy for attribute %q", name)
		}
		out[i] = h
	}
	return out, nil
}

// FullDomain recodes every QI value of ds to its ancestor levels[i] steps up
// in the attribute's hierarchy, returning a new dataset. levels is aligned
// with qis.
func FullDomain(ds *dataset.Dataset, hs Set, qis []int, levels []int) (*dataset.Dataset, error) {
	if len(levels) != len(qis) {
		return nil, fmt.Errorf("generalize: %d levels for %d QIs", len(levels), len(qis))
	}
	hh, err := hs.ForQIs(ds, qis)
	if err != nil {
		return nil, err
	}
	out := ds.Clone()
	// Memoize per attribute: original value -> generalized value.
	memo := make([]map[string]string, len(qis))
	for i := range memo {
		memo[i] = make(map[string]string)
	}
	for r := range out.Records {
		for i, q := range qis {
			v := out.Records[r].Values[q]
			g, ok := memo[i][v]
			if !ok {
				g, err = hh[i].GeneralizeLevels(v, levels[i])
				if err != nil {
					return nil, err
				}
				memo[i][v] = g
			}
			out.Records[r].Values[q] = g
		}
	}
	return out, nil
}

// SuppressRecord replaces all QI values of record r with the Suppressed
// marker and clears its items.
func SuppressRecord(ds *dataset.Dataset, qis []int, r int) {
	for _, q := range qis {
		ds.Records[r].Values[q] = Suppressed
	}
	ds.Records[r].Items = nil
}
