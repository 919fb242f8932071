package relational

import (
	"fmt"

	"secreta/internal/dataset"
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
	freq := view.leafPrefix()
	sw.Mark("setup")

	for minClassSize(view.cutSizes(cuts)) < opts.K {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		// Candidates: generalize the children of some parent whose
		// subtree currently intersects the cut, visited through the
		// first on-cut child in value order.
		type candidate struct {
			attr  int
			child int32
			cost  float64
		}
		best := candidate{attr: -1}
		for i, cut := range cuts {
			ix := cut.Index()
			seen := make([]bool, ix.Len())
			for _, id := range cut.IDs() {
				p := ix.Parent(id)
				if p < 0 || seen[p] {
					continue
				}
				seen[p] = true
				parentNCP := ix.NCP(p)
				// Cost: records under p gain (parentNCP - currentNCP).
				cost := 0.0
				lo, hi := ix.LeafRange(p)
				for o := lo; o < hi; o++ {
					cnt := freq[i][o+1] - freq[i][o]
					if cnt == 0 {
						continue
					}
					cost += (parentNCP - ix.NCP(cut.MapID(ix.LeafID(o)))) * float64(cnt)
				}
				if best.attr < 0 || cost < best.cost {
					best = candidate{attr: i, child: id, cost: cost}
				}
			}
		}
		if best.attr < 0 {
			// Everything is at the root and still not k-anonymous: the
			// single remaining class has n records, so this can only
			// happen for n < k, which was rejected above — or n == 0.
			break
		}
		// Generalizing the child sweeps every cut node under the parent.
		if err := cuts[best.attr].GeneralizeID(best.child); err != nil {
			return nil, err
		}
	}
	sw.Mark("generalize")

	anon := view.publish(func(i, r int) int32 { return cuts[i].MapID(view.nodes[i][view.cols[i][r]]) }, nil)
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases()}, nil
}
