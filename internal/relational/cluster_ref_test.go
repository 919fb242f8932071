package relational

import (
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
)

// This file preserves the pointer-walking absorption scan Cluster shipped
// with before the table-driven rewrite, as a test-only reference: every
// unassigned record is costed by an LCA walk plus two NCP reads per QI.
// The differential test and the fuzz target require the production
// buildClusters to agree with it member-for-member and LCA-for-LCA.

// refRecordNodes resolves every record's QI values to hierarchy nodes.
func refRecordNodes(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy) ([][]*hierarchy.Node, error) {
	out := make([][]*hierarchy.Node, len(ds.Records))
	memo := make([]map[string]*hierarchy.Node, len(qis))
	for i := range memo {
		memo[i] = make(map[string]*hierarchy.Node)
	}
	for r := range ds.Records {
		nodes := make([]*hierarchy.Node, len(qis))
		for i, q := range qis {
			v := ds.Records[r].Values[q]
			node, ok := memo[i][v]
			if !ok {
				node = hh[i].Node(v)
				if node == nil {
					return nil, fmt.Errorf("cluster: hierarchy %q misses value %q", ds.Attrs[q].Name, v)
				}
				memo[i][v] = node
			}
			nodes[i] = node
		}
		out[r] = nodes
	}
	return out, nil
}

// refCostOfAdding computes the NCP increase of extending the cluster's
// LCAs to cover record r, writing the new LCA nodes into lca.
func refCostOfAdding(recNodes [][]*hierarchy.Node, hh []*hierarchy.Hierarchy, cl *clusterState, r int, lca []*hierarchy.Node) float64 {
	delta := 0.0
	for i := range cl.lca {
		node := hierarchy.LCANodes(cl.lca[i], recNodes[r][i])
		lca[i] = node
		delta += hh[i].NCPNode(node) - hh[i].NCPNode(cl.lca[i])
	}
	return delta
}

// refBuildClusters is the reference greedy clustering.
func refBuildClusters(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, opts Options) ([]*clusterState, error) {
	k := opts.K
	n := len(ds.Records)
	recNodes, err := refRecordNodes(ds, qis, hh)
	if err != nil {
		return nil, err
	}
	unassigned := make([]bool, n)
	remaining := n
	for i := range unassigned {
		unassigned[i] = true
	}
	newCluster := func(seed int) *clusterState {
		return &clusterState{
			members: []int{seed},
			lca:     append([]*hierarchy.Node(nil), recNodes[seed]...),
		}
	}
	cand := make([]*hierarchy.Node, len(qis))
	best := make([]*hierarchy.Node, len(qis))

	var clusters []*clusterState
	next := 0
	for remaining >= k {
		for !unassigned[next] {
			next++
		}
		seed := next
		cl := newCluster(seed)
		unassigned[seed] = false
		remaining--
		for len(cl.members) < k {
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
			bestR := -1
			bestCost := 0.0
			for r := 0; r < n; r++ {
				if !unassigned[r] {
					continue
				}
				cost := refCostOfAdding(recNodes, hh, cl, r, cand)
				if bestR < 0 || cost < bestCost {
					bestR, bestCost = r, cost
					best, cand = cand, best
					if cost == 0 {
						break
					}
				}
			}
			if bestR < 0 {
				break
			}
			cl.members = append(cl.members, bestR)
			copy(cl.lca, best)
			unassigned[bestR] = false
			remaining--
		}
		clusters = append(clusters, cl)
	}
	for r := 0; r < n; r++ {
		if !unassigned[r] {
			continue
		}
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		bestC := -1
		bestCost := 0.0
		for ci, cl := range clusters {
			cost := refCostOfAdding(recNodes, hh, cl, r, cand)
			if bestC < 0 || cost < bestCost {
				bestC, bestCost = ci, cost
				best, cand = cand, best
			}
		}
		if bestC < 0 {
			clusters = append(clusters, newCluster(r))
			unassigned[r] = false
			continue
		}
		clusters[bestC].members = append(clusters[bestC].members, r)
		copy(clusters[bestC].lca, best)
		unassigned[r] = false
	}
	return clusters, nil
}
