package relational

import (
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/timing"
)

// TopDown implements top-down specialization (Fung et al., ICDE 2005). It
// starts from the fully generalized dataset (every QI at its hierarchy
// root) and repeatedly performs the best valid specialization: replacing
// one cut value with its children. A specialization is valid when the
// dataset stays k-anonymous; the score is the information (NCP) gained per
// unit of anonymity headroom consumed, following the paper's
// InfoGain/AnonyLoss trade-off.
func TopDown(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	view, err := opts.validate(ds)
	if err != nil {
		return nil, err
	}
	qis, hh := view.qis, view.hh
	n := len(ds.Records)

	cuts := make([]*hierarchy.Cut, len(qis))
	for i := range qis {
		cuts[i] = hierarchy.NewCut(hh[i])
	}
	sw.Mark("setup")

	// The root cut puts everything in one class; if even that is not
	// k-anonymous the instance is infeasible.
	if n < opts.K {
		return nil, fmt.Errorf("topdown: dataset has %d records, fewer than k=%d", n, opts.K)
	}

	// Count leaf frequencies per attribute once; candidate scoring uses
	// them to weight NCP gains by affected records.
	freq := view.leafPrefix()

	for {
		// One specialization round re-partitions the dataset per trial;
		// polling here keeps cancellation delay to one round.
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		type candidate struct {
			attr  int
			node  int32
			score float64
		}
		// The cut holds still within a round, and so does its smallest
		// class: the baseline every candidate's AnonyLoss is measured from.
		cur := minClassSize(view.cutSizes(cuts))
		best := candidate{attr: -1}
		for i, cut := range cuts {
			ix := cut.Index()
			under := func(id int32) int {
				lo, hi := ix.LeafRange(id)
				return freq[i][hi] - freq[i][lo]
			}
			for _, id := range cut.IDs() {
				end := id + ix.SubtreeSize(id)
				if end == id+1 {
					continue
				}
				// Information gain: NCP drop weighted by the records
				// carrying leaves under this node.
				records := under(id)
				if records == 0 {
					// No data under this node; specialize for free.
					records = 1
				}
				childNCP := 0.0
				for ch := id + 1; ch < end; ch += ix.SubtreeSize(ch) {
					childNCP += ix.NCP(ch) * float64(under(ch)) / float64(records)
				}
				gain := (ix.NCP(id) - childNCP) * float64(records)
				if gain <= 0 {
					continue
				}
				// Validity + anonymity loss: min class size after the
				// trial specialization, which generalizing the first
				// child undoes exactly.
				if err := cut.SpecializeID(id); err != nil {
					return nil, err
				}
				mcs := minClassSize(view.cutSizes(cuts))
				if err := cut.GeneralizeID(id + 1); err != nil {
					return nil, err
				}
				if mcs < opts.K {
					continue
				}
				// AnonyLoss: headroom consumed relative to current.
				loss := float64(cur - mcs)
				if loss < 1 {
					loss = 1
				}
				score := gain / loss
				if best.attr < 0 || score > best.score {
					best = candidate{attr: i, node: id, score: score}
				}
			}
		}
		if best.attr < 0 {
			break
		}
		if err := cuts[best.attr].SpecializeID(best.node); err != nil {
			return nil, err
		}
	}
	sw.Mark("specialize")

	anon := view.publish(func(i, r int) int32 { return cuts[i].MapID(view.nodes[i][view.cols[i][r]]) }, nil)
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases()}, nil
}
