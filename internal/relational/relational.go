// Package relational implements the four relational anonymization
// algorithms SECRETA integrates: Incognito (LeFevre et al., SIGMOD 2005),
// Top-down specialization (Fung et al., ICDE 2005), full-subtree bottom-up
// generalization, and Cluster, the greedy local-recoding clustering of
// Poulis et al. (ECML/PKDD 2013). All four enforce k-anonymity over a set
// of quasi-identifier attributes using generalization hierarchies.
package relational

import (
	"context"
	"fmt"
	"slices"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
	"secreta/internal/timing"
)

// Options configures a relational algorithm run.
type Options struct {
	// Ctx, when non-nil, is polled inside the algorithm's long-running
	// loops (cluster absorption, lattice expansion, specialization
	// rounds); once cancelled the run aborts promptly with the context's
	// error. Nil means the run cannot be cancelled.
	Ctx context.Context
	// K is the anonymity parameter (k >= 2 to have any effect).
	K int
	// QIs names the quasi-identifier attributes; empty means all
	// relational attributes.
	QIs []string
	// Hierarchies supplies a hierarchy per QI attribute. Runs only read
	// them: a server shares one set across every job over a dataset.
	Hierarchies generalize.Set
	// MaxSuppression is the fraction of records (0..1) Incognito may
	// suppress instead of generalizing: a lattice node qualifies when the
	// records in classes smaller than k sum to at most this fraction, and
	// those records are suppressed in the output. 0 (the default) is
	// plain k-anonymity. Other algorithms currently ignore it.
	MaxSuppression float64
	// Interned, when non-nil, is the columnar interning of the input
	// dataset (dataset.Intern(ds)). Runs read their QI columns from it and
	// publish over it without writing to it, so callers share one
	// interning across all configurations of a batch, and a server across
	// every job over a registry dataset.
	Interned *dataset.Indexed
}

// Result is the outcome of a relational algorithm run.
type Result struct {
	// Anonymized is the k-anonymous dataset, records aligned with the
	// input: the input's interning, shared, with each QI column replaced
	// by published IDs over a rank-ordered dictionary of its own.
	Anonymized *dataset.Indexed
	// Phases is the phase timing breakdown.
	Phases []timing.Phase
	// Levels reports the chosen generalization levels for full-domain
	// schemes (nil otherwise).
	Levels []int
	// Clusters reports the number of clusters for clustering schemes.
	Clusters int
	// NodesChecked counts lattice nodes whose k-anonymity was tested
	// (Incognito diagnostics).
	NodesChecked int
}

// qiView is one run's quasi-identifiers on the interned core: the QI
// columns as dictionary IDs, with every dictionary value resolved to its
// hierarchy.Index node. BottomUp, TopDown and Incognito count every
// k-check's classes through it; Cluster reads its absorption slots from it.
type qiView struct {
	ix  *dataset.Indexed       // the input's interning
	qis []int                  // QI attribute indices
	hh  []*hierarchy.Hierarchy // hierarchy per QI
	n   int                    // number of records
	// cols[i][r] is the dictionary ID of record r's value of QI i, and
	// nodes[i][id] the hierarchy.Index node of that dictionary value.
	cols  [][]uint32
	nodes [][]int32
	// counter is the run's class counter; a run counts on one goroutine.
	counter *privacy.ClassCounter
	// trans[i] and cards[i] are the last check's compact IDs of QI i:
	// trans[i][id] is the rank of dictionary value id's published node
	// among the distinct nodes published, cards[i] their number. rank[i]
	// is the node-indexed scratch that numbers them, all zero between
	// checks. trans and rank alias the run view's, so a sub-view's checks
	// reuse them too.
	trans [][]uint32
	cards []int
	rank  [][]int32
	// published is the distinct-node scratch of one QI's compaction.
	published []int32
}

// validate checks the options against ds and builds the run's QI view,
// reading the shared interning when it describes ds and interning ds once
// otherwise.
func (o *Options) validate(ds *dataset.Dataset) (*qiView, error) {
	if o.K < 1 {
		return nil, fmt.Errorf("relational: k must be >= 1, got %d", o.K)
	}
	if o.MaxSuppression < 0 || o.MaxSuppression >= 1 {
		return nil, fmt.Errorf("relational: max suppression must be in [0,1), got %v", o.MaxSuppression)
	}
	qis, err := ds.QIIndices(o.QIs)
	if err != nil {
		return nil, err
	}
	if len(qis) == 0 {
		return nil, fmt.Errorf("relational: no quasi-identifier attributes")
	}
	hh, err := o.Hierarchies.ForQIs(ds, qis)
	if err != nil {
		return nil, err
	}
	ix := o.Interned
	// A stale or foreign interning must not be read as ds's.
	if ix == nil || ix.N != len(ds.Records) || len(ix.Dicts) != len(ds.Attrs) {
		ix = dataset.Intern(ds)
	}
	cols, dicts := ix.Columns(qis)
	v := &qiView{ix: ix, qis: qis, hh: hh, n: len(ds.Records), cols: cols, counter: new(privacy.ClassCounter),
		nodes: make([][]int32, len(qis)), trans: make([][]uint32, len(qis)), cards: make([]int, len(qis)), rank: make([][]int32, len(qis))}
	// Every data value must be known to its hierarchy.
	for i, d := range dicts {
		hix := hh[i].Index()
		v.nodes[i] = make([]int32, d.Len())
		for id, val := range d.Values() {
			node, ok := hix.ID(val)
			if !ok {
				return nil, fmt.Errorf("relational: hierarchy %q misses value %q", ds.Attrs[qis[i]].Name, val)
			}
			v.nodes[i][id] = node
		}
		v.trans[i], v.rank[i] = make([]uint32, d.Len()), make([]int32, hix.Len())
	}
	return v, nil
}

// publish returns the run's output: the input's interning with each QI
// column replaced by the values the records publish. Record r publishes
// the hierarchy.Index node node(i, r) on QI i, unless suppressed(r)
// (suppressed nil: no record is); a suppressed record publishes
// generalize.Suppressed on every QI and no items. Each QI's dictionary
// holds exactly its published values, in rank order.
func (v *qiView) publish(node func(i, r int) int32, suppressed func(r int) bool) *dataset.Indexed {
	out := *v.ix
	out.Cols, out.Dicts = slices.Clone(out.Cols), slices.Clone(out.Dicts)
	if suppressed != nil && out.Items != nil {
		out.Items = slices.Clone(out.Items)
		for r := range out.Items {
			if suppressed(r) {
				out.Items[r] = nil
			}
		}
	}
	for i, q := range v.qis {
		// seen is node-indexed scratch, all zero between uses: 1 + the
		// first-seen dictionary ID of each node published so far.
		ix, seen := v.hh[i].Index(), v.rank[i]
		dict, col := dataset.NewInterner(), make([]uint32, v.n)
		for r := range col {
			if suppressed != nil && suppressed(r) {
				col[r] = dict.Intern(generalize.Suppressed)
				continue
			}
			p := node(i, r)
			if seen[p] == 0 {
				seen[p] = int32(dict.Intern(ix.Value(p))) + 1
			}
			col[r] = uint32(seen[p] - 1)
		}
		clear(seen)
		ranked, perm := dict.Rank()
		for r, id := range col {
			col[r] = perm[id]
		}
		out.Cols[q], out.Dicts[q] = col, ranked
	}
	return &out
}

// sub returns the view of the QIs at the given positions.
func (v *qiView) sub(pos []int) *qiView {
	s := &qiView{n: v.n, counter: v.counter, cards: make([]int, len(pos))}
	for _, p := range pos {
		s.qis = append(s.qis, v.qis[p])
		s.hh = append(s.hh, v.hh[p])
		s.cols = append(s.cols, v.cols[p])
		s.nodes = append(s.nodes, v.nodes[p])
		s.trans = append(s.trans, v.trans[p])
		s.rank = append(s.rank, v.rank[p])
	}
	return s
}

// classSizes counts the equivalence classes when QI i publishes each
// value's node as publish(i, node). The counter reads the columns through
// the compact IDs compact fills, so a check allocates nothing and the
// tuples' radix is the product of the distinct published values. The
// sizes are valid until the view's next count.
func (v *qiView) classSizes(publish func(i int, node int32) int32) []int {
	v.compact(publish)
	return v.counter.ClassSizes(v.n, v.cols, v.trans, v.cards)
}

// compact fills trans and cards for publishing QI i's values as
// publish(i, node): each dictionary ID maps to the rank of its published
// node among the distinct nodes published. Ranks follow node order, so
// tuple order, and with it any order over the classes, is the order of
// the published node IDs.
func (v *qiView) compact(publish func(i int, node int32) int32) {
	for i, nodes := range v.nodes {
		trans, rank, pub := v.trans[i], v.rank[i], v.published[:0]
		for id, node := range nodes {
			p := publish(i, node)
			trans[id] = uint32(p)
			if rank[p] == 0 {
				rank[p] = 1
				pub = append(pub, p)
			}
		}
		slices.Sort(pub)
		for r, p := range pub {
			rank[p] = int32(r)
		}
		for id, p := range trans {
			trans[id] = uint32(rank[p])
		}
		for _, p := range pub {
			rank[p] = 0
		}
		v.cards[i], v.published = len(pub), pub
	}
}

// cutSizes counts the classes when every QI is published through its cut.
func (v *qiView) cutSizes(cuts []*hierarchy.Cut) []int {
	return v.classSizes(func(i int, node int32) int32 { return cuts[i].MapID(node) })
}

// leafPrefix returns, per QI, prefix sums over leaf ordinals of the
// records holding each leaf value: the records under node id number
// p[hi]-p[lo] for lo, hi := Index.LeafRange(id). Records holding an
// interior value (partly generalized input) are not counted.
func (v *qiView) leafPrefix() [][]int {
	out := make([][]int, len(v.cols))
	for i, col := range v.cols {
		ix := v.hh[i].Index()
		p := make([]int, ix.NumLeaves()+1)
		for _, d := range col {
			if node := v.nodes[i][d]; ix.SubtreeSize(node) == 1 {
				lo, _ := ix.LeafRange(node)
				p[lo+1]++
			}
		}
		for o := 1; o < len(p); o++ {
			p[o] += p[o-1]
		}
		out[i] = p
	}
	return out
}

// levelSizes counts the classes when QI i is generalized levels[i] steps
// up its hierarchy.
func (v *qiView) levelSizes(levels []int) []int { return v.levelClasses(levels, nil) }

// levelClasses is levelSizes that also stores, when of is non-nil, each
// record's class number, an index into the sizes, in of[r].
func (v *qiView) levelClasses(levels []int, of []int32) []int {
	v.compact(func(i int, node int32) int32 {
		return v.hh[i].Index().GeneralizeLevels(node, levels[i])
	})
	return v.counter.Classes(v.n, v.cols, v.trans, v.cards, of)
}

// interrupted returns the options context's error, nil when no context
// was supplied. Algorithms poll it at the top of their expensive loops so
// cancellation takes effect mid-run with bounded delay.
func (o *Options) interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// suppressionNeeded counts the records falling in classes smaller than k
// — the records that would have to be suppressed to make the node
// k-anonymous. Refining the publication (less generalization) can only
// split classes, so the count is monotone under specialization, which
// keeps Incognito's prunings valid with a suppression budget.
func suppressionNeeded(sizes []int, k int) int {
	needed := 0
	for _, c := range sizes {
		if c < k {
			needed += c
		}
	}
	return needed
}

// minClassSize returns the smallest of the class sizes, 0 when there are
// none (no records).
func minClassSize(sizes []int) int {
	min := 0
	for i, c := range sizes {
		if i == 0 || c < min {
			min = c
		}
	}
	return min
}
