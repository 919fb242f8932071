package relational

import (
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/timing"
)

// BottomUp implements full-subtree bottom-up generalization: it starts from
// the original (leaf-level) data and greedily applies the cheapest
// full-subtree generalization — replacing all cut nodes under some parent
// with the parent — until the dataset is k-anonymous. Cost is the weighted
// NCP increase over the records affected, so the algorithm prefers
// generalizing rare, low-impact values first.
func BottomUp(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	view, err := opts.validate(ds)
	if err != nil {
		return nil, err
	}
	qis, hh := view.qis, view.hh
	n := len(ds.Records)
	if n > 0 && n < opts.K {
		return nil, fmt.Errorf("bottomup: dataset has %d records, fewer than k=%d", n, opts.K)
	}

	cuts := make([]*hierarchy.Cut, len(qis))
	for i := range qis {
		cuts[i] = hierarchy.NewLeafCut(hh[i])
	}
	freq := make([]map[string]int, len(qis))
	for i, q := range qis {
		freq[i] = make(map[string]int)
		for r := range ds.Records {
			freq[i][ds.Records[r].Values[q]]++
		}
	}
	sw.Mark("setup")

	for minClassSize(view.cutSizes(cuts)) < opts.K {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		// Candidates: generalize the children of some parent whose
		// subtree currently intersects the cut.
		type candidate struct {
			attr   int
			parent *hierarchy.Node
			cost   float64
		}
		best := candidate{attr: -1}
		for i := range cuts {
			seen := make(map[*hierarchy.Node]bool)
			for _, node := range cuts[i].Nodes() {
				p := node.Parent
				if p == nil || seen[p] {
					continue
				}
				seen[p] = true
				parentNCP, err := hh[i].NCP(p.Value)
				if err != nil {
					return nil, err
				}
				// Cost: records under p gain (parentNCP - currentNCP).
				cost := 0.0
				for _, leaf := range p.Leaves() {
					cnt := freq[i][leaf]
					if cnt == 0 {
						continue
					}
					cur, err := cuts[i].Map(leaf)
					if err != nil {
						return nil, err
					}
					curNCP, err := hh[i].NCP(cur)
					if err != nil {
						return nil, err
					}
					cost += (parentNCP - curNCP) * float64(cnt)
				}
				if best.attr < 0 || cost < best.cost {
					best = candidate{attr: i, parent: p, cost: cost}
				}
			}
		}
		if best.attr < 0 {
			// Everything is at the root and still not k-anonymous: the
			// single remaining class has n records, so this can only
			// happen for n < k, which was rejected above — or n == 0.
			break
		}
		// Generalize one child on the cut up to the parent (Generalize
		// sweeps all cut nodes under the parent).
		child := ""
		for _, c := range best.parent.Children {
			if cuts[best.attr].Contains(c.Value) {
				child = c.Value
				break
			}
		}
		if child == "" {
			// The cut sits deeper; find any cut descendant of the parent.
			for _, v := range cuts[best.attr].Values() {
				if hh[best.attr].Covers(best.parent.Value, v) {
					child = v
					break
				}
			}
		}
		if child == "" {
			return nil, fmt.Errorf("bottomup: internal error: no cut node under %q", best.parent.Value)
		}
		if err := cuts[best.attr].Generalize(child); err != nil {
			return nil, err
		}
	}
	sw.Mark("generalize")

	cutMap := make(map[string]*hierarchy.Cut, len(qis))
	for i, q := range qis {
		cutMap[ds.Attrs[q].Name] = cuts[i]
	}
	anon, err := generalize.ApplyCuts(ds, cutMap, qis)
	if err != nil {
		return nil, err
	}
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases()}, nil
}
