package rt

import (
	"fmt"
	"sort"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
	"secreta/internal/relational"
	"secreta/internal/timing"
)

// This file preserves the merge traversal as it was before the support
// tables: every k^m check re-counts the clusters' transactions with a
// privacy.KMCounter. TestMergeMatchesReference and
// FuzzMergeMatchesReference compare Anonymize against it.

// refCluster is the reference's cluster state: the shared fields plus the
// transactions as dense IDs, which every reference check counts on, and
// as the strings the reference publishes.
type refCluster struct {
	cluster
	itemIDs [][]uint32
	items   [][]string
}

// refAnonymize is Anonymize with the reference merge traversal.
func refAnonymize(ds *dataset.Dataset, opts Options) (*Result, error) {
	if !ds.HasTransaction() {
		return nil, fmt.Errorf("rt: dataset has no transaction attribute")
	}
	if opts.M < 1 {
		return nil, fmt.Errorf("rt: m must be >= 1, got %d", opts.M)
	}
	if opts.Delta < 0 {
		return nil, fmt.Errorf("rt: delta must be >= 0, got %v", opts.Delta)
	}
	if opts.Weight <= 0 || opts.Weight > 1 {
		opts.Weight = 0.5
	}
	relRun, err := RelationalByName(opts.RelAlgo)
	if err != nil {
		return nil, err
	}
	transRun, err := TransactionByName(opts.TransAlgo)
	if err != nil {
		return nil, err
	}
	qis, err := ds.QIIndices(opts.QIs)
	if err != nil {
		return nil, err
	}
	hh, err := opts.Hierarchies.ForQIs(ds, qis)
	if err != nil {
		return nil, err
	}

	sw := timing.Start()
	relRes, err := relRun(ds, relational.Options{Ctx: opts.Ctx, K: opts.K, QIs: opts.QIs, Hierarchies: opts.Hierarchies, Interned: interned(ds, opts)})
	if err != nil {
		return nil, fmt.Errorf("rt: relational phase (%s): %w", opts.RelAlgo, err)
	}
	sw.Mark("relational")

	view := txView(ds, opts)
	counter := privacy.NewKMCounter(view)
	clusters := refClustersFromClasses(ds, relRes.Anonymized.Materialize(), qis, hh, view)
	merges := 0
	for {
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		dirtyIdx := -1
		for i, c := range clusters {
			if c == nil || c.clean {
				continue
			}
			if counter.Anonymous(opts.K, opts.M, c.itemIDs) {
				c.clean = true
				continue
			}
			dirtyIdx = i
			break
		}
		if dirtyIdx < 0 {
			break
		}
		c := clusters[dirtyIdx]
		partner, delta := refPickPartner(clusters, dirtyIdx, hh, opts, counter)
		if partner >= 0 && delta <= opts.Delta && (opts.UngatedMerges || c.merges < maxMergeChain) {
			helps := opts.UngatedMerges
			if !helps {
				before := counter.Count(opts.K, opts.M, 0, c.itemIDs) +
					counter.Count(opts.K, opts.M, 0, clusters[partner].itemIDs)
				after := counter.Count(opts.K, opts.M, 0, c.itemIDs, clusters[partner].itemIDs)
				helps = after < before
			}
			if helps {
				refMergeClusters(clusters, dirtyIdx, partner, hh)
				merges++
				continue
			}
		}
		c.clean = true
	}
	sw.Mark("merge")

	transRepairs := 0
	suppressed := 0
	live := clusters[:0]
	for _, c := range clusters {
		if c != nil {
			live = append(live, c)
		}
	}
	clusters = live
	for _, c := range clusters {
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		if counter.Anonymous(opts.K, opts.M, c.itemIDs) {
			continue
		}
		repaired, err := repairCluster(ds, &c.cluster, transRun, opts)
		if err != nil {
			if cerr := ctxErr(opts.Ctx); cerr != nil {
				return nil, cerr
			}
			for i := range c.items {
				c.items[i] = nil
			}
			c.itemIDs = nil
			suppressed++
			continue
		}
		for j, basket := range repaired.Items {
			c.items[j] = nil
			for _, id := range basket {
				c.items[j] = append(c.items[j], repaired.ItemDict.Value(id))
			}
		}
		c.itemIDs = nil
		transRepairs++
	}
	sw.Mark("transaction")

	anon := ds.Clone()
	for _, c := range clusters {
		for j, r := range c.records {
			for i, q := range qis {
				anon.Records[r].Values[q] = c.relVals[i]
			}
			anon.Records[r].Items = c.items[j]
		}
	}
	sw.Mark("recode")
	return &Result{
		Anonymized:         dataset.Intern(anon),
		Phases:             sw.Phases(),
		Merges:             merges,
		Clusters:           len(clusters),
		TransRepairs:       transRepairs,
		SuppressedClusters: suppressed,
	}, nil
}

func refClustersFromClasses(orig, anon *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, view *privacy.TxView) []*refCluster {
	classes := privacy.Partition(anon, qis)
	out := make([]*refCluster, len(classes))
	for i, cl := range classes {
		c := &refCluster{cluster: cluster{records: append([]int(nil), cl.Records...), relVals: cl.Signature}}
		refResolveNodes(&c.cluster, hh)
		c.items = make([][]string, len(c.records))
		for j, r := range c.records {
			c.items[j] = append([]string(nil), orig.Records[r].Items...)
		}
		c.itemIDs = make([][]uint32, len(c.records))
		for j, r := range c.records {
			c.itemIDs[j] = view.Txs[r]
		}
		out[i] = c
	}
	return out
}

// refResolveNodes looks each of the cluster signature's values up in its
// hierarchy, leaving the cluster without nodes when one is missing.
func refResolveNodes(c *cluster, hh []*hierarchy.Hierarchy) {
	nodes := make([]*hierarchy.Node, len(c.relVals))
	for i, v := range c.relVals {
		if nodes[i] = hh[i].Node(v); nodes[i] == nil {
			c.relNodes, c.relNCP = nil, nil
			return
		}
	}
	c.setNodes(nodes, hh)
}

func refRelDelta(a, b *refCluster, hh []*hierarchy.Hierarchy) (float64, []*hierarchy.Node, error) {
	if a.relNodes == nil || b.relNodes == nil {
		return 0, nil, fmt.Errorf("rt: cluster signature unknown to hierarchy")
	}
	newNodes := make([]*hierarchy.Node, len(a.relNodes))
	delta := 0.0
	na, nb := float64(len(a.records)), float64(len(b.records))
	for i, h := range hh {
		lca := hierarchy.LCANodes(a.relNodes[i], b.relNodes[i])
		newNodes[i] = lca
		newNCP := h.NCPNode(lca)
		aNCP := h.NCPNode(a.relNodes[i])
		bNCP := h.NCPNode(b.relNodes[i])
		cur := (aNCP*na + bNCP*nb) / (na + nb)
		delta += newNCP - cur
	}
	return delta / float64(len(hh)), newNodes, nil
}

// refRelDeltaCost is relDeltaCost as it was before the per-cluster NCP
// cache: it re-reads both clusters' signature NCPs for every pair, so the
// reference does not share the production scorer.
func refRelDeltaCost(a, b *refCluster, hh []*hierarchy.Hierarchy) (float64, error) {
	if a.relNodes == nil || b.relNodes == nil {
		return 0, fmt.Errorf("rt: cluster signature unknown to hierarchy")
	}
	delta := 0.0
	na, nb := float64(len(a.records)), float64(len(b.records))
	for i, h := range hh {
		lca := hierarchy.LCANodes(a.relNodes[i], b.relNodes[i])
		newNCP := h.NCPNode(lca)
		aNCP := h.NCPNode(a.relNodes[i])
		bNCP := h.NCPNode(b.relNodes[i])
		cur := (aNCP*na + bNCP*nb) / (na + nb)
		delta += newNCP - cur
	}
	return delta / float64(len(hh)), nil
}

func refTransCost(a, b *refCluster, k, m int, counter *privacy.KMCounter) float64 {
	total := 0
	for _, tr := range a.itemIDs {
		total += len(tr)
	}
	for _, tr := range b.itemIDs {
		total += len(tr)
	}
	if total == 0 {
		return 0
	}
	vs := counter.Count(k, m, 0, a.itemIDs, b.itemIDs)
	return float64(vs) / float64(total)
}

func refPickPartner(clusters []*refCluster, i int, hh []*hierarchy.Hierarchy, opts Options, counter *privacy.KMCounter) (int, float64) {
	type cand struct {
		j        int
		rd       float64
		tc       float64
		combined float64
	}
	var cands []cand
	for j, other := range clusters {
		if ctxErr(opts.Ctx) != nil {
			return -1, 0
		}
		if j == i || other == nil {
			continue
		}
		rd, err := refRelDeltaCost(clusters[i], other, hh)
		if err != nil {
			continue
		}
		c := cand{j: j, rd: rd}
		if opts.Flavor != RMerge {
			c.tc = refTransCost(clusters[i], other, opts.K, opts.M, counter)
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return -1, 0
	}
	switch opts.Flavor {
	case RMerge:
		sort.Slice(cands, func(a, b int) bool { return cands[a].rd < cands[b].rd })
	case TMerge:
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].tc != cands[b].tc {
				return cands[a].tc < cands[b].tc
			}
			return cands[a].rd < cands[b].rd
		})
	default:
		maxRD := 0.0
		for _, c := range cands {
			if c.rd > maxRD {
				maxRD = c.rd
			}
		}
		for idx := range cands {
			nrd := 0.0
			if maxRD > 0 {
				nrd = cands[idx].rd / maxRD
			}
			cands[idx].combined = opts.Weight*nrd + (1-opts.Weight)*cands[idx].tc
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].combined < cands[b].combined })
	}
	return cands[0].j, cands[0].rd
}

func refMergeClusters(clusters []*refCluster, i, j int, hh []*hierarchy.Hierarchy) {
	a, b := clusters[i], clusters[j]
	_, newNodes, err := refRelDelta(a, b, hh)
	if err != nil {
		return
	}
	newVals := make([]string, len(newNodes))
	for i, n := range newNodes {
		newVals[i] = n.Value
	}
	a.relVals = newVals
	a.relNodes = newNodes
	a.records = append(a.records, b.records...)
	a.items = append(a.items, b.items...)
	a.itemIDs = append(a.itemIDs, b.itemIDs...)
	a.clean = false
	a.merges += b.merges + 1
	clusters[j] = nil
}
