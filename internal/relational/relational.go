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

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
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
	// Hierarchies supplies a hierarchy per QI attribute.
	Hierarchies generalize.Set
	// MaxSuppression is the fraction of records (0..1) Incognito may
	// suppress instead of generalizing: a lattice node qualifies when the
	// records in classes smaller than k sum to at most this fraction, and
	// those records are suppressed in the output. 0 (the default) is
	// plain k-anonymity. Other algorithms currently ignore it.
	MaxSuppression float64
	// Interned, when non-nil, is the columnar interning of the input
	// dataset (dataset.Intern(ds)). Validation reads per-column domains
	// from its dictionaries instead of re-scanning every record, and batch
	// callers share one interning across all configurations of a batch.
	Interned *dataset.Indexed
}

// Result is the outcome of a relational algorithm run.
type Result struct {
	// Anonymized is the k-anonymous dataset (records aligned with the
	// input).
	Anonymized *dataset.Dataset
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

func (o *Options) validate(ds *dataset.Dataset) ([]int, []*hierarchy.Hierarchy, error) {
	if o.K < 1 {
		return nil, nil, fmt.Errorf("relational: k must be >= 1, got %d", o.K)
	}
	if o.MaxSuppression < 0 || o.MaxSuppression >= 1 {
		return nil, nil, fmt.Errorf("relational: max suppression must be in [0,1), got %v", o.MaxSuppression)
	}
	qis, err := ds.QIIndices(o.QIs)
	if err != nil {
		return nil, nil, err
	}
	if len(qis) == 0 {
		return nil, nil, fmt.Errorf("relational: no quasi-identifier attributes")
	}
	hh, err := o.Hierarchies.ForQIs(ds, qis)
	if err != nil {
		return nil, nil, err
	}
	// Every data value must be known to its hierarchy. With a shared
	// interning the per-column domain is already materialized in the
	// dictionaries; otherwise Domain scans the records.
	domain := ds.Domain
	if ix := o.interned(ds); ix != nil {
		domain = func(q int) []string { return ix.Dicts[q].Values() }
	}
	for i, q := range qis {
		for _, v := range domain(q) {
			if !hh[i].Contains(v) {
				return nil, nil, fmt.Errorf("relational: hierarchy %q misses value %q", ds.Attrs[q].Name, v)
			}
		}
	}
	return qis, hh, nil
}

// interned returns the shared interning when it describes ds, nil
// otherwise (a stale or foreign interning must not be read as ds's).
func (o *Options) interned(ds *dataset.Dataset) *dataset.Indexed {
	if ix := o.Interned; ix != nil && ix.N == len(ds.Records) && len(ix.Dicts) == len(ds.Attrs) {
		return ix
	}
	return nil
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

// projector maps a record index to a packed, injective key of its
// (generalized) QI signature. The returned slice is reused across calls:
// callers must consume it (hash it, compare it) before the next call.
// Keys are tuples of dense per-column IDs interned as generalized values
// are first seen — no per-record string building, no per-record
// allocation.
type projector func(r int) []byte

// columnMemo interns one column's value -> generalized-value translations
// to dense IDs: the translation runs once per distinct original value,
// and records carry 4-byte IDs from then on.
type columnMemo struct {
	ids  map[string]uint32 // original value -> dense generalized ID
	gids map[string]uint32 // generalized value -> dense ID (dedup across originals)
}

func newColumnMemo() *columnMemo {
	return &columnMemo{ids: make(map[string]uint32), gids: make(map[string]uint32)}
}

// id resolves an original value through translate, memoized.
func (m *columnMemo) id(v string, translate func(string) string) uint32 {
	if id, ok := m.ids[v]; ok {
		return id
	}
	g := translate(v)
	id, ok := m.gids[g]
	if !ok {
		id = uint32(len(m.gids))
		m.gids[g] = id
	}
	m.ids[v] = id
	return id
}

// keyProjector assembles a projector from per-column translators.
func keyProjector(ds *dataset.Dataset, qis []int, translate []func(string) string) projector {
	memos := make([]*columnMemo, len(qis))
	for i := range memos {
		memos[i] = newColumnMemo()
	}
	buf := make([]byte, 4*len(qis))
	return func(r int) []byte {
		for i, q := range qis {
			id := memos[i].id(ds.Records[r].Values[q], translate[i])
			buf[4*i] = byte(id >> 24)
			buf[4*i+1] = byte(id >> 16)
			buf[4*i+2] = byte(id >> 8)
			buf[4*i+3] = byte(id)
		}
		return buf
	}
}

// levelProjector builds a projector that generalizes each QI to the given
// level, memoizing value translations.
func levelProjector(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, levels []int) (projector, error) {
	translate := make([]func(string) string, len(qis))
	for i := range qis {
		h, lvl := hh[i], levels[i]
		translate[i] = func(v string) string {
			g, err := h.GeneralizeLevels(v, lvl)
			if err != nil {
				// validate() guarantees all values are known.
				return v
			}
			return g
		}
	}
	return keyProjector(ds, qis, translate), nil
}

// cutProjector builds a projector that maps each QI through its cut.
func cutProjector(ds *dataset.Dataset, qis []int, cuts []*hierarchy.Cut) projector {
	translate := make([]func(string) string, len(qis))
	for i := range qis {
		c := cuts[i]
		translate[i] = func(v string) string {
			g, err := c.Map(v)
			if err != nil {
				return v
			}
			return g
		}
	}
	return keyProjector(ds, qis, translate)
}

// classCounts tallies equivalence-class sizes under the projector: a
// two-step map lookup keeps the per-record path allocation-free (keys are
// copied only when a new class appears).
func classCounts(n int, proj projector) []int {
	index := make(map[string]int)
	var counts []int
	for r := 0; r < n; r++ {
		key := proj(r)
		if i, ok := index[string(key)]; ok {
			counts[i]++
		} else {
			index[string(key)] = len(counts)
			counts = append(counts, 1)
		}
	}
	return counts
}

// suppressionNeeded counts the records falling in equivalence classes
// smaller than k under the projector — the records that would have to be
// suppressed to make the node k-anonymous. Refining the projection (less
// generalization) can only split classes, so the count is monotone under
// specialization, which keeps Incognito's prunings valid with a
// suppression budget.
func suppressionNeeded(n, k int, proj projector) int {
	needed := 0
	for _, c := range classCounts(n, proj) {
		if c < k {
			needed += c
		}
	}
	return needed
}

// minClassSize computes the smallest equivalence class size under the
// projector over n records. Returns 0 for empty data.
func minClassSize(n int, proj projector) int {
	if n == 0 {
		return 0
	}
	min := n
	for _, c := range classCounts(n, proj) {
		if c < min {
			min = c
		}
	}
	return min
}
