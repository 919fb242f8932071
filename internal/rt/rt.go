// Package rt implements SECRETA's anonymization of RT-datasets — datasets
// with both relational and transaction attributes — via the three bounding
// methods of Poulis et al. (ECML/PKDD 2013): Rmerger, Tmerger and RTmerger.
// A bounding method combines one of the four relational algorithms with one
// of the five transaction algorithms (the paper's 20 combinations) to
// enforce (k, k^m)-anonymity: the relational projection is k-anonymous and
// the transaction multiset of every equivalence class is k^m-anonymous.
//
// The pipeline has three phases. First the relational algorithm builds
// k-anonymous clusters. Then every cluster whose transactions violate
// k^m-anonymity is repaired, either by merging it with another cluster
// (cheap for the transaction attribute, costly for the relational one) or
// by running the transaction algorithm inside the cluster (the reverse
// trade-off). The parameter delta bounds the merge route: a merge is taken
// only when its average relational NCP increase is at most delta; with
// delta = 0 clusters never merge, with large delta they merge freely. The
// three bounding methods differ in how they pick the merge partner:
// Rmerger minimizes the relational loss increase, Tmerger minimizes the
// transaction-side repair work (residual violations of the merged
// multiset), and RTmerger minimizes a weighted combination.
package rt

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/privacy"
	"secreta/internal/relational"
	"secreta/internal/timing"
	"secreta/internal/transaction"
)

// Flavor selects the bounding method.
type Flavor int

const (
	// RMerge merges the pair with the least relational loss increase.
	RMerge Flavor = iota
	// TMerge merges the pair leaving the fewest transaction violations.
	TMerge
	// RTMerge balances both costs with Options.Weight.
	RTMerge
)

// String returns the paper's name for the flavor.
func (f Flavor) String() string {
	switch f {
	case RMerge:
		return "Rmerger"
	case TMerge:
		return "Tmerger"
	case RTMerge:
		return "RTmerger"
	default:
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
}

// ParseFlavor converts a bounding method name.
func ParseFlavor(s string) (Flavor, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rmerger", "rmerge", "r":
		return RMerge, nil
	case "tmerger", "tmerge", "t":
		return TMerge, nil
	case "rtmerger", "rtmerge", "rt":
		return RTMerge, nil
	}
	return 0, fmt.Errorf("rt: unknown bounding method %q", s)
}

// RelationalAlgos lists the supported relational algorithm names.
var RelationalAlgos = []string{"incognito", "topdown", "bottomup", "cluster"}

// TransactionAlgos lists the supported transaction algorithm names.
var TransactionAlgos = []string{"apriori", "lra", "vpa", "coat", "pcta"}

// Options configures an RT-dataset anonymization run.
type Options struct {
	// Ctx, when non-nil, is polled throughout the pipeline — inside the
	// relational phase, between merge-traversal iterations and during
	// per-cluster transaction repairs — so a cancelled run stops promptly
	// mid-algorithm with the context's error. Nil disables cancellation.
	Ctx context.Context
	// K is the relational anonymity parameter; also used as the k of
	// k^m-anonymity inside classes.
	K int
	// M is the adversary itemset size of k^m-anonymity.
	M int
	// Delta bounds the average relational NCP increase a cluster merge
	// may cost; merges above it fall back to transaction generalization.
	Delta float64
	// Weight balances RTmerger's two costs (default 0.5; 1 = all
	// relational).
	Weight float64
	// QIs names the relational quasi-identifiers (empty: all).
	QIs []string
	// Hierarchies supplies relational hierarchies.
	Hierarchies generalize.Set
	// ItemHierarchy drives hierarchy-based transaction algorithms and is
	// required for Apriori/LRA/VPA. Runs only read the hierarchies: a
	// server shares them across every job over a dataset.
	ItemHierarchy *hierarchy.Hierarchy
	// Policy drives COAT/PCTA.
	Policy *policy.Policy
	// Interned, when non-nil, is the columnar interning of the input
	// dataset (dataset.Intern(ds)). The merge traversal's k^m support
	// tables are built from its transaction IDs instead of re-interning
	// the item domain, and callers (engine.Input) share one interning
	// across every configuration of a batch and every job over a registry
	// dataset; runs never write to it. Nil makes Anonymize intern once
	// itself.
	Interned *dataset.Indexed
	// RelAlgo and TransAlgo pick the combination (see RelationalAlgos,
	// TransactionAlgos).
	RelAlgo   string
	TransAlgo string
	// Flavor picks the bounding method.
	Flavor Flavor
	// UngatedMerges disables the requirement that a merge strictly
	// reduce the merged clusters' k^m violations. It exists for the
	// ablation benchmarks: without the gate, any delta > 0 lets merges
	// cascade until the whole dataset is one class.
	UngatedMerges bool
}

// Result is the outcome of an RT anonymization.
type Result struct {
	// Anonymized satisfies (k,k^m)-anonymity: the relational phase's
	// output (non-QI columns shared with the input's interning) with
	// every QI column holding its records' final cluster signature and
	// every basket its cluster's published one.
	Anonymized *dataset.Indexed
	// Phases: "relational", "merge", "transaction" timings (plot (b) of
	// the Evaluation mode).
	Phases []timing.Phase
	// Merges is the number of cluster merges performed.
	Merges int
	// Clusters is the final number of equivalence classes.
	Clusters int
	// TransRepairs counts clusters repaired by transaction-side
	// generalization.
	TransRepairs int
	// SuppressedClusters counts clusters whose items had to be dropped
	// entirely (infeasible transaction repair).
	SuppressedClusters int
}

type cluster struct {
	records []int
	relVals []string // generalized QI values, aligned with qis
	// relNodes caches the hierarchy nodes of relVals so the O(clusters^2)
	// merge scoring runs on pointers (LCA walks, O(1) NCP) instead of
	// per-pair value lookups. nil when a signature value is unknown to its
	// hierarchy; such clusters never merge (mirroring the old per-pair
	// lookup error).
	relNodes []*hierarchy.Node
	// relNCP caches the NCP of each relNodes entry, so scoring a pair
	// evaluates only the LCA's NCP per QI. nil exactly when relNodes is.
	relNCP []float64
	// repaired is the cluster's transaction repair, its baskets aligned
	// with records; nil publishes the records' input baskets. suppressed
	// marks a cluster whose repair was infeasible: it publishes none.
	repaired   *transaction.Result
	suppressed bool
	// km is the itemset support table of the cluster's original
	// transactions, the state every k^m check of the merge traversal
	// reads. Dropped once the transaction phase has read which clusters
	// need a repair.
	km privacy.KMTable
	// nItems is the total item count of the cluster's transactions.
	nItems int
	clean  bool // no further merge processing needed
	merges int  // merge-chain length, bounded by maxMergeChain
}

// setNodes installs the signature nodes and refreshes their cached NCPs.
func (c *cluster) setNodes(nodes []*hierarchy.Node, hh []*hierarchy.Hierarchy) {
	c.relNodes = nodes
	if len(c.relNCP) != len(nodes) {
		c.relNCP = make([]float64, len(nodes))
	}
	for q, n := range nodes {
		c.relNCP[q] = hh[q].NCPNode(n)
	}
}

// maxMergeChain bounds how many merges one cluster may absorb; beyond it
// the transaction algorithm repairs the cluster. Merging pools similar
// transactions so less item generalization is needed, but merging alone can
// rarely satisfy k^m, so an unbounded chain would collapse the whole
// dataset into one class.
const maxMergeChain = 8

// Anonymize runs the configured combination on an RT-dataset.
func Anonymize(ds *dataset.Dataset, opts Options) (*Result, error) {
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

	// The item domain is interned once for the whole run (or inherited
	// from the caller's batch-shared interning), and every cluster gets
	// an itemset support table over the resulting IDs once. Every k^m
	// check after that reads the tables: a cluster's own violation count
	// is stored, a candidate merge is scored by one merge-join of two
	// tables, and a merge folds them. No check rescans transactions:
	// Tmerger scores every candidate at every step, and its absorbing
	// cluster can grow to the whole dataset.
	view := txView(ds, opts)
	tables := privacy.NewKMTableArena(view, opts.K, opts.M)
	clusters := clustersFromClasses(relRes.Anonymized, qis, hh, view, tables)
	merges := 0
	var cands []cand // pickPartner's scoring buffer, reused across steps
	for {
		// One traversal iteration scans clusters and scores merge
		// candidates; polling here (and inside pickPartner) bounds the
		// cancellation delay to a fraction of one iteration.
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		dirtyIdx := -1
		for i, c := range clusters {
			if c == nil || c.clean {
				continue
			}
			if c.km.Violations() == 0 {
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
		partner, delta := pickPartner(clusters, dirtyIdx, hh, opts, tables, &cands)
		if partner >= 0 && delta <= opts.Delta && (opts.UngatedMerges || c.merges < maxMergeChain) {
			// Merge only when it actually helps the transaction side:
			// the merged multiset must have strictly fewer violations
			// than the two clusters separately (shared rare itemsets
			// combine support and clear k).
			helps := opts.UngatedMerges
			if !helps {
				p := clusters[partner]
				helps = tables.MergedViolations(&c.km, &p.km) < c.km.Violations()+p.km.Violations()
			}
			if helps {
				mergeClusters(clusters, dirtyIdx, partner, hh, tables)
				merges++
				continue
			}
		}
		// Too costly or unhelpful to merge: defer to the transaction
		// phase below.
		c.clean = true
	}
	sw.Mark("merge")

	// Transaction phase: enforce k^m inside every cluster that still
	// violates it (including those flagged for repair above).
	transRepairs := 0
	suppressed := 0
	live := clusters[:0]
	var repair []bool
	for _, c := range clusters {
		if c != nil {
			live = append(live, c)
			repair = append(repair, c.km.Violations() > 0)
			// No check reads the tables after this point: drop them so
			// their arrays are garbage before the repairs allocate.
			c.km = privacy.KMTable{}
		}
	}
	clusters = live
	for i, c := range clusters {
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		if !repair[i] {
			continue
		}
		repaired, err := repairCluster(ds, c, transRun, opts)
		if err != nil {
			// A repair abandoned by cancellation is not infeasible —
			// surface the context error instead of suppressing the cluster.
			if cerr := ctxErr(opts.Ctx); cerr != nil {
				return nil, cerr
			}
			// Infeasible inside this cluster: suppress its items.
			c.suppressed = true
			suppressed++
			continue
		}
		c.repaired = repaired
		transRepairs++
	}
	sw.Mark("transaction")

	anon := publish(ds, relRes.Anonymized, qis, clusters, view)
	sw.Mark("recode")
	return &Result{
		Anonymized:         anon,
		Phases:             sw.Phases(),
		Merges:             merges,
		Clusters:           len(clusters),
		TransRepairs:       transRepairs,
		SuppressedClusters: suppressed,
	}, nil
}

// RelationalByName returns the runner of the named relational algorithm,
// one of RelationalAlgos (case and surrounding space ignored).
func RelationalByName(name string) (func(*dataset.Dataset, relational.Options) (*relational.Result, error), error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "incognito":
		return relational.Incognito, nil
	case "topdown":
		return relational.TopDown, nil
	case "bottomup":
		return relational.BottomUp, nil
	case "cluster":
		return relational.Cluster, nil
	}
	return nil, fmt.Errorf("rt: unknown relational algorithm %q (want one of %v)", name, RelationalAlgos)
}

// TransactionByName returns the runner of the named transaction
// algorithm, one of TransactionAlgos (case and surrounding space ignored).
func TransactionByName(name string) (func(*dataset.Dataset, transaction.Options) (*transaction.Result, error), error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "apriori":
		return transaction.Apriori, nil
	case "lra":
		return transaction.LRA, nil
	case "vpa":
		return transaction.VPA, nil
	case "coat":
		return transaction.COAT, nil
	case "pcta":
		return transaction.PCTA, nil
	}
	return nil, fmt.Errorf("rt: unknown transaction algorithm %q (want one of %v)", name, TransactionAlgos)
}

// interned returns the caller-supplied batch interning when it
// describes the dataset, nil otherwise (defensive: a stale or foreign
// interning must not silently recode the wrong records).
func interned(ds *dataset.Dataset, opts Options) *dataset.Indexed {
	if opts.Interned != nil && opts.Interned.Describes(ds) {
		return opts.Interned
	}
	return nil
}

// txView resolves the run's shared transaction view: the batch interning
// when the caller supplied one, a one-time interning of ds otherwise.
func txView(ds *dataset.Dataset, opts Options) *privacy.TxView {
	if ix := interned(ds, opts); ix != nil {
		return privacy.TxViewOf(ix)
	}
	items := make([][]string, len(ds.Records))
	for r := range ds.Records {
		items[r] = ds.Records[r].Items
	}
	return privacy.InternTxView(items)
}

// clustersFromClasses rebuilds cluster state from the equivalence classes
// of the relational phase's published QI columns, building each cluster's
// support table from its records' baskets in view. Signature nodes are
// resolved once per dictionary value; a class holding a value its
// hierarchy lacks keeps none.
func clustersFromClasses(anon *dataset.Indexed, qis []int, hh []*hierarchy.Hierarchy, view *privacy.TxView, tables *privacy.KMTableArena) []*cluster {
	cols, dicts := anon.Columns(qis)
	nodes := make([][]*hierarchy.Node, len(dicts))
	for i, d := range dicts {
		for _, v := range d.Values() {
			nodes[i] = append(nodes[i], hh[i].Node(v))
		}
	}
	classes := privacy.PartitionColumns(anon.N, cols, dicts)
	out := make([]*cluster, len(classes))
	var txs [][]uint32
	for i, cl := range classes {
		c := &cluster{records: cl.Records, relVals: cl.Signature}
		sig := make([]*hierarchy.Node, len(cols))
		for q, col := range cols {
			sig[q] = nodes[q][col[cl.Records[0]]]
		}
		if !slices.Contains(sig, nil) {
			c.setNodes(sig, hh)
		}
		txs = txs[:0]
		for _, r := range c.records {
			txs = append(txs, view.Txs[r])
			c.nItems += len(view.Txs[r])
		}
		c.km = tables.Build(txs)
		out[i] = c
	}
	return out
}

// relDeltaCost computes the average per-attribute NCP increase of merging
// two clusters: NCP(LCA of both signatures) minus the size-weighted
// current NCP. Runs on the clusters' cached signature nodes and NCPs — one
// LCA walk and one O(1) NCP read per QI, no value lookups.
func relDeltaCost(a, b *cluster, hh []*hierarchy.Hierarchy) (float64, error) {
	if a.relNodes == nil || b.relNodes == nil {
		return 0, fmt.Errorf("rt: cluster signature unknown to hierarchy")
	}
	delta := 0.0
	na, nb := float64(len(a.records)), float64(len(b.records))
	for i, h := range hh {
		lca := hierarchy.LCANodes(a.relNodes[i], b.relNodes[i])
		newNCP := h.NCPNode(lca)
		cur := (a.relNCP[i]*na + b.relNCP[i]*nb) / (na + nb)
		delta += newNCP - cur
	}
	return delta / float64(len(hh)), nil
}

// transCost estimates the transaction-side repair work remaining after
// merging: the number of k^m violations in the merged multiset, normalized
// by the merged item count. The count is one merge-join of the two
// clusters' support tables — no merged copy, no transaction scan.
func transCost(a, b *cluster, tables *privacy.KMTableArena) float64 {
	total := a.nItems + b.nItems
	if total == 0 {
		return 0
	}
	return float64(tables.MergedViolations(&a.km, &b.km)) / float64(total)
}

// ctxErr returns ctx's error, treating a nil context as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cand is one merge candidate scored by pickPartner.
type cand struct {
	j        int
	rd       float64
	tc       float64
	combined float64
}

// candLess is the bounding method's candidate order: relational delta for
// Rmerger, transaction cost then relational delta for Tmerger, and the
// weighted combination for RTmerger.
func candLess(f Flavor, a, b *cand) bool {
	switch f {
	case RMerge:
		return a.rd < b.rd
	case TMerge:
		if a.tc != b.tc {
			return a.tc < b.tc
		}
		return a.rd < b.rd
	default: // RTMerge
		return a.combined < b.combined
	}
}

// pickPartner selects the best merge partner for cluster i per the bounding
// method, returning the partner index (or -1) and the merge's relational
// delta. Scoring every candidate pair is the traversal's hot path, so the
// scan polls the options context every 256 candidates (Err takes the
// context's lock) and bails out with -1 when cancelled; the caller's own
// poll then surfaces the context error. Candidates are scored into *buf,
// a buffer the caller reuses across steps.
//
// Tie rule: the partner is the candidate that sort.Slice under candLess
// leaves at index 0 of the candidates in cluster order. choosePartner
// finds the minimum in one linear pass and returns it when it is strictly
// below every other candidate. When another candidate ties it, the same
// sort.Slice runs on the same slice, so among tied candidates the partner
// is whatever pdqsort leaves first — not necessarily the lowest index.
func pickPartner(clusters []*cluster, i int, hh []*hierarchy.Hierarchy, opts Options, tables *privacy.KMTableArena, buf *[]cand) (int, float64) {
	cands := (*buf)[:0]
	defer func() { *buf = cands }()
	for j, other := range clusters {
		if j%256 == 0 && ctxErr(opts.Ctx) != nil {
			return -1, 0
		}
		if j == i || other == nil {
			continue
		}
		rd, err := relDeltaCost(clusters[i], other, hh)
		if err != nil {
			continue
		}
		c := cand{j: j, rd: rd}
		if opts.Flavor != RMerge {
			c.tc = transCost(clusters[i], other, tables)
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return -1, 0
	}
	best := choosePartner(cands, opts.Flavor, opts.Weight)
	return cands[best].j, cands[best].rd
}

// choosePartner returns the index in cands (non-empty, in cluster order)
// of the candidate pickPartner's tie rule chooses, filling RTmerger's
// combined scores first. A tie sorts cands in place and answers 0.
// Relational deltas are finite, or NaN for every candidate when there is
// no QI; then every pair compares as tied, and the sort decides as well.
func choosePartner(cands []cand, f Flavor, weight float64) int {
	if f == RTMerge {
		// Normalize relational deltas to [0,1] by the max candidate.
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
			cands[idx].combined = weight*nrd + (1-weight)*cands[idx].tc
		}
	}
	best, tied := 0, false
	for x := 1; x < len(cands); x++ {
		switch {
		case candLess(f, &cands[x], &cands[best]):
			best, tied = x, false
		case !candLess(f, &cands[best], &cands[x]):
			tied = true
		}
	}
	if !tied {
		return best
	}
	sort.Slice(cands, func(a, b int) bool { return candLess(f, &cands[a], &cands[b]) })
	return 0
}

// mergeClusters folds cluster j into cluster i, updating signatures to the
// per-attribute LCA (and their cached NCPs) and folding the support
// tables. Cluster j's slot becomes nil. Both clusters' signature nodes are
// known: pickPartner returns only partners whose relDeltaCost succeeded.
func mergeClusters(clusters []*cluster, i, j int, hh []*hierarchy.Hierarchy, tables *privacy.KMTableArena) {
	a, b := clusters[i], clusters[j]
	newNodes := make([]*hierarchy.Node, len(a.relNodes))
	newVals := make([]string, len(a.relNodes))
	for q := range a.relNodes {
		newNodes[q] = hierarchy.LCANodes(a.relNodes[q], b.relNodes[q])
		newVals[q] = newNodes[q].Value
	}
	a.relVals = newVals
	a.setNodes(newNodes, hh)
	a.records = append(a.records, b.records...)
	tables.Fold(&a.km, &b.km)
	a.nItems += b.nItems
	a.clean = false
	a.merges += b.merges + 1
	clusters[j] = nil
}

// repairCluster runs the transaction algorithm on the cluster's records
// alone and returns its published baskets (aligned with c.records). The
// transaction algorithms read and publish items only, so the
// sub-dataset holds the cluster's baskets and no relational values. It
// shares the input's baskets, which the algorithms only read; they are
// already sorted and deduplicated.
func repairCluster(ds *dataset.Dataset, c *cluster, transRun func(*dataset.Dataset, transaction.Options) (*transaction.Result, error), opts Options) (*transaction.Result, error) {
	sub := &dataset.Dataset{TransName: ds.TransName, Records: make([]dataset.Record, len(c.records))}
	for idx, r := range c.records {
		sub.Records[idx].Items = ds.Records[r].Items
	}
	res, err := transRun(sub, transaction.Options{
		Ctx: opts.Ctx,
		K:   opts.K, M: opts.M,
		ItemHierarchy: opts.ItemHierarchy,
		Policy:        clusterPolicy(sub, opts),
	})
	if err != nil {
		return nil, err
	}
	// Mapping-based algorithms protect their policy but do not guarantee
	// k^m; verify and reject so the caller can fall back.
	view := &privacy.TxView{Vals: res.ItemDict.Values(), Txs: res.Items}
	if !privacy.NewKMCounter(view).Anonymous(opts.K, opts.M, view.Txs) {
		return nil, fmt.Errorf("rt: cluster repair by %s left k^m violations", opts.TransAlgo)
	}
	return res, nil
}

// publish builds the run's output from base, the relational phase's
// output. Each QI column holds its records' cluster signature, each
// distinct value interned once per cluster; a record the relational
// phase suppressed belongs to no cluster and keeps its input value. Each
// basket is its cluster's: the input's (from view), the repair's, or
// none for a suppressed cluster or a record outside every cluster. The
// item dictionary holds exactly the published values, each read once
// per source dictionary (view, or a repair's); both sources are
// rank-built, so translating an ascending basket keeps it ascending.
func publish(ds *dataset.Dataset, base *dataset.Indexed, qis []int, clusters []*cluster, view *privacy.TxView) *dataset.Indexed {
	out := *base
	out.Cols, out.Dicts = slices.Clone(base.Cols), slices.Clone(base.Dicts)
	clustered := make([]bool, base.N)
	for _, c := range clusters {
		for _, r := range c.records {
			clustered[r] = true
		}
	}
	for i, q := range qis {
		dict, col := dataset.NewInterner(), make([]uint32, base.N)
		for _, c := range clusters {
			id := dict.Intern(c.relVals[i])
			for _, r := range c.records {
				col[r] = id
			}
		}
		for r, in := range clustered {
			if !in {
				col[r] = dict.Intern(ds.Records[r].Values[q])
			}
		}
		ranked, perm := dict.Rank()
		for r, id := range col {
			col[r] = perm[id]
		}
		out.Cols[q], out.Dicts[q] = col, ranked
	}

	// Each basket is translated into first-seen IDs of one interner, a
	// source value interned on its first use, and ranked afterwards.
	// Baskets are carved from shared chunks of at least 4096 IDs.
	items := dataset.NewInterner()
	fromView := make([]uint32, len(view.Vals)) // 1 + first-seen ID
	baskets := make([][]uint32, base.N)
	var flat []uint32
	for _, c := range clusters {
		if c.suppressed {
			continue
		}
		vals, to := view.Vals, fromView
		if c.repaired != nil {
			vals, to = c.repaired.ItemDict.Values(), make([]uint32, c.repaired.ItemDict.Len())
		}
		for j, r := range c.records {
			basket := view.Txs[r]
			if c.repaired != nil {
				basket = c.repaired.Items[j]
			}
			if len(basket) == 0 {
				continue
			}
			if cap(flat)-len(flat) < len(basket) {
				flat = make([]uint32, 0, max(4096, len(basket)))
			}
			start := len(flat)
			for _, id := range basket {
				if to[id] == 0 {
					to[id] = items.Intern(vals[id]) + 1
				}
				flat = append(flat, to[id]-1)
			}
			baskets[r] = flat[start:len(flat):len(flat)]
		}
	}
	ranked, perm := items.Rank()
	for _, basket := range baskets {
		for i, id := range basket {
			basket[i] = perm[id]
		}
	}
	return out.WithItems(baskets, ranked)
}

// clusterPolicy narrows the configured policy to the cluster's item domain,
// or synthesizes an all-items policy for mapping-based algorithms when none
// was given.
func clusterPolicy(sub *dataset.Dataset, opts Options) *policy.Policy {
	switch strings.ToLower(opts.TransAlgo) {
	case "coat", "pcta":
	default:
		return opts.Policy
	}
	pol := &policy.Policy{}
	if opts.Policy != nil {
		pol.Privacy = opts.Policy.Privacy
		pol.Utility = opts.Policy.Utility
	}
	if len(pol.Privacy) == 0 {
		// Protecting every occurring itemset of size <= m with support
		// >= k is exactly k^m-anonymity, so a COAT/PCTA repair under this
		// synthesized policy satisfies the cluster's obligation.
		pol.Privacy = policy.PrivacyFrequent(sub, 1, opts.M)
	}
	if len(pol.Utility) == 0 {
		pol.Utility = policy.UtilityTop(sub)
	}
	return pol
}
