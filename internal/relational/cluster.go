package relational

import (
	"fmt"
	"math"

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

	// Every record publishes its cluster's LCAs.
	nq := len(view.qis)
	lca := make([]int32, n*nq)
	for _, cl := range clusters {
		for i, l := range cl.lca {
			id, _ := view.hh[i].Index().ID(l.Value)
			for _, r := range cl.members {
				lca[r*nq+i] = id
			}
		}
	}
	anon := view.publish(func(i, r int) int32 { return lca[r*nq+i] }, nil)
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
// being grown, cost[slot] is the cluster's NCP increase on that QI once a
// record holding the value joins. It depends only on the cluster's
// current LCA of that QI, so a QI's slice is reloaded only when its LCA
// moves, while costing a record is one addition per QI.
//
// A reload copies the QI's row for the new LCA, built the first time a
// cluster's LCA reaches that node and indexed by its preorder ID; each
// row's LCA walks run once per run rather than once per move, and memory
// follows the nodes the clusters reach.
type absorbTables struct {
	hh   []*hierarchy.Hierarchy
	ix   []*hierarchy.Index
	off  []int
	ids  []int32 // slot -> the value's own hierarchy.Index node
	cost []float64
	// rows[i][id] is QI i's row for LCA node id, nil until built. Rows
	// are carved from slab, chunks of memoChunk floats, until memoLeft
	// floats are used; rows not built by then are walked on every
	// reload.
	rows     [][][]float64
	slab     []float64
	memoLeft int
}

const (
	// maxMemo caps the floats the rows take (8 MiB). The generated
	// census data's rows take some 13k.
	maxMemo = 1 << 20
	// memoChunk is the size of the chunks rows are carved from (32 KiB),
	// so memory follows the rows built.
	memoChunk = 1 << 12
)

// load refills QI i's slots for a cluster whose LCA on it is node l. The
// float terms are the ones costOfAdding sums, so table sums and walked
// sums agree bit for bit.
func (t *absorbTables) load(i int, l int32) {
	dst := t.cost[t.off[i]:t.off[i+1]]
	if row := t.rows[i][l]; row != nil {
		copy(dst, row)
		return
	}
	ix, h := t.ix[i], t.hh[i]
	base := h.NCPNode(ix.Node(l))
	for s, id := range t.ids[t.off[i]:t.off[i+1]] {
		dst[s] = h.NCPNode(ix.Node(ix.LCA(l, id))) - base
	}
	w := len(dst)
	if w > t.memoLeft {
		return
	}
	t.memoLeft -= w
	if len(t.slab) < w {
		t.slab = make([]float64, max(w, memoChunk))
	}
	t.rows[i][l] = t.slab[:w:w]
	t.slab = t.slab[w:]
	copy(t.rows[i][l], dst)
}

// costOfAdding computes the NCP increase of extending the cluster's LCAs
// to cover the record whose slots are row, writing the new LCA nodes into
// lca (caller-owned scratch). It walks the hierarchy; the leftover pass,
// which compares one record against every cluster, uses it instead of
// the per-cluster tables.
func (t *absorbTables) costOfAdding(cl *clusterState, row []uint32, lca []*hierarchy.Node) float64 {
	delta := 0.0
	for i := range cl.lca {
		node := hierarchy.LCANodes(cl.lca[i], t.ix[i].Node(t.ids[row[i]]))
		lca[i] = node
		delta += t.hh[i].NCPNode(node) - t.hh[i].NCPNode(cl.lca[i])
	}
	return delta
}

// clusterSlots lays the view's QI columns out row-major as absorbTables
// slots, so the scan reads one record's slots contiguously.
func clusterSlots(v *qiView) ([]uint32, *absorbTables) {
	nq := len(v.qis)
	t := &absorbTables{hh: v.hh, ix: make([]*hierarchy.Index, nq), off: make([]int, nq+1),
		rows: make([][][]float64, nq), memoLeft: maxMemo}
	for i, nodes := range v.nodes {
		t.off[i+1] = t.off[i] + len(nodes)
		t.ids = append(t.ids, nodes...)
		t.ix[i] = v.hh[i].Index()
		t.rows[i] = make([][]float64, t.ix[i].Len())
	}
	t.cost = make([]float64, len(t.ids))
	rows := make([]uint32, v.n*nq)
	for i, col := range v.cols {
		base := uint32(t.off[i])
		for r, id := range col {
			rows[r*nq+i] = base + id
		}
	}
	return rows, t
}

// boundSlack absorbs the rounding of the float sums the absorption
// bound compares; the sums hold a handful of terms no larger than 1, so
// their error is some 1e-15.
const boundSlack = 1e-9

// buildClusters grows each cluster by absorbing, k-1 times, the first
// unassigned record of least cost. A cluster's LCAs only move up, and
// NCP never falls toward the root, so a record's cost
// Σ_i NCP(LCA(L_i, v_i)) − S, where S = Σ_i NCP(L_i), can drop between
// two absorptions by at most the rise of S. Each pool record's key holds
// its last exact cost plus the S it was taken at; a record whose key − S
// exceeds the running best by more than boundSlack cannot be strictly
// cheaper, and the scan skips it without reading its slots.
func buildClusters(v *qiView, opts Options) ([]*clusterState, error) {
	k := opts.K
	n, nq := v.n, len(v.qis)
	rows, t := clusterSlots(v)
	row := func(r int) []uint32 { return rows[r*nq : r*nq+nq] }
	newCluster := func(seed int) *clusterState {
		cl := &clusterState{members: make([]int, 1, k), lca: make([]*hierarchy.Node, nq)}
		cl.members[0] = seed
		for i, s := range row(seed) {
			cl.lca[i] = t.ix[i].Node(t.ids[s])
		}
		return cl
	}
	// pool lists the unassigned records in ascending order, so scanning
	// it visits candidates in the same order as a scan over all records
	// that skips the assigned ones — which keeps the tie-break (first
	// strictly cheaper record wins) unchanged. keys[p] is pool[p]'s key.
	// A record the growing cluster takes keeps its place, keyed taken so
	// every scan skips it, until the cluster is done and one pass
	// compacts the pool.
	pool := make([]int, n)
	keys := make([]float64, n)
	for r := range pool {
		pool[r], keys[r] = r, math.Inf(-1)
	}
	taken := math.Inf(1)
	lca := make([]int32, nq) // the growing cluster's LCA node IDs

	var clusters []*clusterState
	for len(pool) >= k {
		cl := newCluster(pool[0])
		keys[0] = taken
		for i, s := range row(cl.members[0]) {
			lca[i] = t.ids[s]
			t.load(i, lca[i])
		}
		sum := t.ncpSum(cl.lca)
		for len(cl.members) < k {
			// Each absorption scans every unassigned record; polling here
			// bounds cancellation delay to one scan.
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
			bestP := -1
			bestCost := 0.0
			skip := math.MaxFloat64 // keys above it cannot beat bestCost; taken ones always are
			for p, r := range pool {
				if keys[p] > skip {
					continue
				}
				cost := 0.0
				for _, s := range rows[r*nq : r*nq+nq] {
					cost += t.cost[s]
				}
				keys[p] = cost + sum
				if bestP < 0 || cost < bestCost {
					bestP, bestCost = p, cost
					if cost == 0 {
						break // cannot do better than free
					}
					skip = bestCost + boundSlack + sum
				}
			}
			if bestP < 0 {
				break
			}
			r := pool[bestP]
			keys[bestP] = taken
			cl.members = append(cl.members, r)
			// An LCA can move at zero cost (a unary chain keeps the leaf
			// count), so moves are found by node, not by cost.
			for i, s := range row(r) {
				if l := t.ix[i].LCA(lca[i], t.ids[s]); l != lca[i] {
					lca[i], cl.lca[i] = l, t.ix[i].Node(l)
					t.load(i, l)
				}
			}
			sum = t.ncpSum(cl.lca)
		}
		clusters = append(clusters, cl)
		if len(cl.members) == 1 {
			// k = 1: nothing was scanned, so the seed, pool[0], is the
			// only key set and drops off the front.
			pool, keys = pool[1:], keys[1:]
			continue
		}
		w := 0
		for p, r := range pool {
			if keys[p] != taken {
				pool[w], keys[w] = r, math.Inf(-1)
				w++
			}
		}
		pool, keys = pool[:w], keys[:w]
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

// ncpSum returns S = Σ_i NCP(lca[i]), summed in QI order.
func (t *absorbTables) ncpSum(lca []*hierarchy.Node) float64 {
	sum := 0.0
	for i, l := range lca {
		sum += t.hh[i].NCPNode(l)
	}
	return sum
}
