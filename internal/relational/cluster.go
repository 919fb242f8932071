package relational

import (
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/timing"
)

// Cluster implements the greedy clustering-based k-anonymization of Poulis
// et al. (ECML/PKDD 2013): records are grouped into clusters of at least k
// by repeatedly seeding a cluster and absorbing the records whose addition
// increases the cluster's generalization cost (per-attribute LCA NCP) the
// least; leftover records join their cheapest cluster. Each cluster is then
// locally recoded to its per-attribute least common ancestors, so different
// clusters can use different generalization granularities (local recoding),
// which typically preserves far more utility than full-domain schemes.
func Cluster(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	view, err := opts.validate(ds)
	if err != nil {
		return nil, err
	}
	qis := view.qis
	n := len(ds.Records)
	if n > 0 && n < opts.K {
		return nil, fmt.Errorf("cluster: dataset has %d records, fewer than k=%d", n, opts.K)
	}
	sw.Mark("setup")

	clusters, err := buildClusters(view, opts)
	if err != nil {
		return nil, err
	}
	sw.Mark("cluster")

	anon := ds.Clone()
	for _, cl := range clusters {
		for i, q := range qis {
			for _, r := range cl.members {
				anon.Records[r].Values[q] = cl.lca[i].Value
			}
		}
	}
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases(), Clusters: len(clusters)}, nil
}

// clusterState tracks one cluster's members and its running per-attribute
// LCA nodes.
type clusterState struct {
	members []int
	lca     []*hierarchy.Node
}

// absorbTables turns the absorption scan into table lookups. Every QI
// value is a dense slot: QI i's value with column ID id sits at
// off[i]+id, so one flat array per table serves all QIs. For the cluster
// being grown, lca[slot] is the cluster's LCA on that QI once a record
// holding the value joins, and cost[slot] the resulting NCP increase.
// Both depend only on the cluster's current LCA of that QI, so a QI's
// slice is rebuilt only when its LCA moves — at most the QI's domain size
// in LCA walks — while costing a record is one addition per QI.
type absorbTables struct {
	hh    []*hierarchy.Hierarchy
	off   []int
	nodes []*hierarchy.Node // slot -> the value's own hierarchy node
	lca   []*hierarchy.Node
	cost  []float64
}

// rebuild refills QI i's slots for a cluster whose LCA on it is l. The
// float terms are the ones costOfAdding sums, so table sums and walked
// sums agree bit for bit.
func (t *absorbTables) rebuild(i int, l *hierarchy.Node) {
	base := t.hh[i].NCPNode(l)
	for s := t.off[i]; s < t.off[i+1]; s++ {
		a := hierarchy.LCANodes(l, t.nodes[s])
		t.lca[s] = a
		t.cost[s] = t.hh[i].NCPNode(a) - base
	}
}

// costOfAdding computes the NCP increase of extending the cluster's LCAs
// to cover the record whose slots are row, writing the new LCA nodes into
// lca (caller-owned scratch). It walks the hierarchy; the leftover pass,
// which compares one record against every cluster, uses it instead of
// the per-cluster tables.
func (t *absorbTables) costOfAdding(cl *clusterState, row []uint32, lca []*hierarchy.Node) float64 {
	delta := 0.0
	for i := range cl.lca {
		node := hierarchy.LCANodes(cl.lca[i], t.nodes[row[i]])
		lca[i] = node
		delta += t.hh[i].NCPNode(node) - t.hh[i].NCPNode(cl.lca[i])
	}
	return delta
}

// clusterSlots lays the view's QI columns out row-major as absorbTables
// slots, so the scan reads one record's slots contiguously.
func clusterSlots(v *qiView) ([]uint32, *absorbTables) {
	t := &absorbTables{hh: v.hh, off: make([]int, len(v.qis)+1)}
	for i, nodes := range v.nodes {
		t.off[i+1] = t.off[i] + len(nodes)
		ix := v.hh[i].Index()
		for _, node := range nodes {
			t.nodes = append(t.nodes, ix.Node(node))
		}
	}
	t.lca = make([]*hierarchy.Node, len(t.nodes))
	t.cost = make([]float64, len(t.nodes))
	nq := len(v.qis)
	rows := make([]uint32, v.n*nq)
	for i, col := range v.cols {
		base := uint32(t.off[i])
		for r, id := range col {
			rows[r*nq+i] = base + id
		}
	}
	return rows, t
}

func buildClusters(v *qiView, opts Options) ([]*clusterState, error) {
	k := opts.K
	n, nq := v.n, len(v.qis)
	rows, t := clusterSlots(v)
	row := func(r int) []uint32 { return rows[r*nq : r*nq+nq] }
	newCluster := func(seed int) *clusterState {
		cl := &clusterState{members: []int{seed}, lca: make([]*hierarchy.Node, nq)}
		for i, s := range row(seed) {
			cl.lca[i] = t.nodes[s]
		}
		return cl
	}
	// pool lists the unassigned records in ascending order, so scanning
	// it visits candidates in the same order as a scan over all records
	// that skips the assigned ones — which keeps the tie-break (first
	// strictly cheaper record wins) unchanged.
	pool := make([]int, n)
	for r := range pool {
		pool[r] = r
	}

	var clusters []*clusterState
	for len(pool) >= k {
		cl := newCluster(pool[0])
		pool = pool[1:]
		for i, l := range cl.lca {
			t.rebuild(i, l)
		}
		for len(cl.members) < k {
			// Each absorption scans every unassigned record; polling here
			// bounds cancellation delay to one scan.
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
			bestP := -1
			bestCost := 0.0
			for p, r := range pool {
				cost := 0.0
				for _, s := range rows[r*nq : r*nq+nq] {
					cost += t.cost[s]
				}
				if bestP < 0 || cost < bestCost {
					bestP, bestCost = p, cost
					if cost == 0 {
						break // cannot do better than free
					}
				}
			}
			if bestP < 0 {
				break
			}
			r := pool[bestP]
			pool = append(pool[:bestP], pool[bestP+1:]...)
			cl.members = append(cl.members, r)
			for i, s := range row(r) {
				if l := t.lca[s]; l != cl.lca[i] {
					cl.lca[i] = l
					t.rebuild(i, l)
				}
			}
		}
		clusters = append(clusters, cl)
	}
	// Leftovers: attach each to the cluster whose LCAs grow the least.
	// Two reusable LCA buffers serve the scan: cand receives each
	// cluster's candidate nodes, best keeps the running winner's.
	cand := make([]*hierarchy.Node, nq)
	best := make([]*hierarchy.Node, nq)
	for _, r := range pool {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		bestC := -1
		bestCost := 0.0
		for ci, cl := range clusters {
			cost := t.costOfAdding(cl, row(r), cand)
			if bestC < 0 || cost < bestCost {
				bestC, bestCost = ci, cost
				best, cand = cand, best
			}
		}
		if bestC < 0 {
			// No cluster exists (n < k was rejected; n == 0 cannot reach
			// here). Defensive: make a singleton cluster.
			clusters = append(clusters, newCluster(r))
			continue
		}
		clusters[bestC].members = append(clusters[bestC].members, r)
		copy(clusters[bestC].lca, best)
	}
	return clusters, nil
}
