package dataset

import (
	"slices"
	"sort"
)

// Interner maps strings to dense uint32 IDs and back. The zero-alloc hot
// paths of the anonymization algorithms (partition signatures, k^m support
// counting, cut mapping) run on these IDs instead of the strings
// themselves: IDs pack into fixed-width keys, index straight into arrays,
// and compare in one instruction.
//
// An interner built by Rank assigns IDs in ascending string order, so
// comparing IDs (or byte-packed ID tuples) orders exactly like comparing
// the underlying strings — the property the deterministic signature and
// violation orderings rely on.
type Interner struct {
	ids  map[string]uint32
	vals []string
}

// NewInterner returns an empty interner that assigns IDs in first-seen
// order.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// NewRankedInterner returns an interner over sorted, a list of distinct
// values in ascending order, each value's ID its position: rank-built,
// with no map growth or permutation. The interner keeps sorted as its
// storage.
func NewRankedInterner(sorted []string) *Interner {
	ids := make(map[string]uint32, len(sorted))
	for i, v := range sorted {
		ids[v] = uint32(i)
	}
	return &Interner{ids: ids, vals: sorted}
}

// Intern returns the ID of v, assigning the next dense ID when v is new.
func (in *Interner) Intern(v string) uint32 {
	if id, ok := in.ids[v]; ok {
		return id
	}
	id := uint32(len(in.vals))
	in.ids[v] = id
	in.vals = append(in.vals, v)
	return id
}

// Rank returns a rank-ordered copy of the interner (IDs reassigned in
// ascending string order) and the old-ID -> new-ID permutation. Building
// first-seen and ranking afterwards costs one map operation per input
// value plus a sort of the distinct values — half the map traffic of
// interning twice.
func (in *Interner) Rank() (*Interner, []uint32) {
	order := make([]int, len(in.vals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.vals[order[a]] < in.vals[order[b]] })
	ranked := &Interner{ids: make(map[string]uint32, len(in.vals)), vals: make([]string, len(in.vals))}
	perm := make([]uint32, len(in.vals))
	for newID, oldID := range order {
		v := in.vals[oldID]
		ranked.vals[newID] = v
		ranked.ids[v] = uint32(newID)
		perm[oldID] = uint32(newID)
	}
	return ranked, perm
}

// ID returns the ID of v and whether v has been interned.
func (in *Interner) ID(v string) (uint32, bool) {
	id, ok := in.ids[v]
	return id, ok
}

// Value returns the string behind an ID; the ID must have been issued by
// this interner.
func (in *Interner) Value(id uint32) string { return in.vals[id] }

// Len returns the number of interned strings (== the smallest unissued ID).
func (in *Interner) Len() int { return len(in.vals) }

// Values returns the interned strings indexed by ID. The slice is the
// interner's backing storage — callers must not mutate it.
func (in *Interner) Values() []string { return in.vals }

// Indexed is the interned, column-major view of a Dataset: every QI value
// and transaction item is a dense uint32, records are columns of int
// slices, and baskets are sorted ID lists. Algorithms run their hot loops
// on this representation; strings survive only at the I/O edges
// (Materialize, the per-attribute Dicts).
type Indexed struct {
	// Attrs and TransName mirror the source dataset's schema.
	Attrs     []Attribute
	TransName string
	// N is the number of records.
	N int
	// Cols holds the relational values column-major: Cols[a][r] is the ID
	// of record r's value of attribute a, resolvable through Dicts[a].
	Cols [][]uint32
	// Dicts are the per-attribute rank interners: within one attribute,
	// ID order equals string order.
	Dicts []*Interner
	// Items holds each record's basket as ascending item IDs (nil for an
	// empty basket), resolvable through ItemDict. Because ItemDict is
	// rank-built, the ID order matches the sorted item strings.
	Items [][]uint32
	// ItemDict interns the transaction item domain.
	ItemDict *Interner
}

// Intern builds the columnar view of d. The dataset is not retained;
// Materialize reconstructs an equal dataset.
func Intern(d *Dataset) *Indexed {
	ix := &Indexed{
		Attrs:     append([]Attribute(nil), d.Attrs...),
		TransName: d.TransName,
		N:         len(d.Records),
	}
	cols, dicts := InternColumns(d, nil)
	ix.Cols, ix.Dicts = cols, dicts
	if d.HasTransaction() {
		dict := NewInterner()
		ix.Items = make([][]uint32, len(d.Records))
		for r := range d.Records {
			rec := d.Records[r].Items
			if len(rec) == 0 {
				continue
			}
			ids := make([]uint32, len(rec))
			for i, it := range rec {
				ids[i] = dict.Intern(it)
			}
			ix.Items[r] = ids
		}
		ranked, perm := dict.Rank()
		ix.ItemDict = ranked
		for r := range ix.Items {
			ids := ix.Items[r]
			for i := range ids {
				ids[i] = perm[ids[i]]
			}
			// Baskets are name-sorted, so rank remapping keeps them
			// ascending.
		}
	}
	return ix
}

// Describes reports whether ix can be the interning of d: the same
// schema, record count and transaction presence. Callers that accept a
// caller-supplied interning check it first, so a stale or foreign one is
// never read as d's.
func (ix *Indexed) Describes(d *Dataset) bool {
	return ix.N == len(d.Records) && ix.TransName == d.TransName && (ix.ItemDict != nil) == d.HasTransaction() &&
		len(ix.Dicts) == len(d.Attrs) && slices.Equal(ix.Attrs, d.Attrs)
}

// WithItems returns ix with its baskets replaced by items over dict,
// sharing every relational column: how a transaction run's published
// baskets join the input's relational columns. items follows the Items
// invariants — record-aligned, ascending, nil for an empty basket — and
// dict is rank-built.
func (ix *Indexed) WithItems(items [][]uint32, dict *Interner) *Indexed {
	out := *ix
	out.Items, out.ItemDict = items, dict
	return &out
}

// Columns returns the given relational columns of ix and their
// dictionaries, as InternColumns does for a Dataset.
func (ix *Indexed) Columns(attrs []int) ([][]uint32, []*Interner) {
	cols, dicts := make([][]uint32, len(attrs)), make([]*Interner, len(attrs))
	for i, a := range attrs {
		cols[i], dicts[i] = ix.Cols[a], ix.Dicts[a]
	}
	return cols, dicts
}

// InternColumns rank-interns the given relational columns of d (all when
// cols is nil) and returns them column-major along with the per-column
// interners: Intern's relational half, and the interning of the few QI
// columns a check on a string dataset reads (privacy.Partition,
// metrics.GCP).
func InternColumns(d *Dataset, cols []int) ([][]uint32, []*Interner) {
	if cols == nil {
		cols = make([]int, len(d.Attrs))
		for i := range cols {
			cols[i] = i
		}
	}
	out := make([][]uint32, len(cols))
	dicts := make([]*Interner, len(cols))
	for i, a := range cols {
		ids, dict := internColumn(d, a)
		ranked, perm := dict.Rank()
		for r := range ids {
			ids[r] = perm[ids[r]]
		}
		out[i], dicts[i] = ids, ranked
	}
	return out, dicts
}

// linearScanMax is the domain size up to which column interning scans the
// seen-values list instead of hashing. Generalized candidates — the
// datasets the algorithms partition in their hot loops — have a handful
// of distinct values per column, and Go's string comparison short-cuts on
// length and shared backing (cut/full-domain recoding hands every record
// the same memoized string), so the scan beats a map lookup there. The
// first column value past the threshold swaps in a map for the rest.
const linearScanMax = 8

// internColumn first-seen-interns one column, touching every cell exactly
// once. This loop dominates signature-keyed partitioning.
func internColumn(d *Dataset, a int) ([]uint32, *Interner) {
	var m map[string]uint32
	var vals []string
	ids := make([]uint32, len(d.Records))
	for r := range d.Records {
		v := d.Records[r].Values[a]
		if m != nil {
			id, ok := m[v]
			if !ok {
				id = uint32(len(vals))
				m[v] = id
				vals = append(vals, v)
			}
			ids[r] = id
			continue
		}
		id, found := uint32(0), false
		for j := range vals {
			if vals[j] == v {
				id, found = uint32(j), true
				break
			}
		}
		if !found {
			id = uint32(len(vals))
			if len(vals) >= linearScanMax {
				m = make(map[string]uint32, 2*len(vals))
				for j, s := range vals {
					m[s] = uint32(j)
				}
				m[v] = id
			}
			vals = append(vals, v)
		}
		ids[r] = id
	}
	if m == nil {
		m = make(map[string]uint32, len(vals))
		for j, s := range vals {
			m[s] = uint32(j)
		}
	}
	return ids, &Interner{ids: m, vals: vals}
}

// Materialize reconstructs the string dataset: Intern followed by
// Materialize yields a dataset equal to the original (the round-trip
// property the equivalence tests pin).
func (ix *Indexed) Materialize() *Dataset {
	d := &Dataset{
		Attrs:     append([]Attribute(nil), ix.Attrs...),
		TransName: ix.TransName,
		Records:   make([]Record, ix.N),
	}
	for r := 0; r < ix.N; r++ {
		vals := make([]string, len(ix.Attrs))
		for a := range ix.Attrs {
			vals[a] = ix.Dicts[a].Value(ix.Cols[a][r])
		}
		d.Records[r].Values = vals
		if ix.ItemDict != nil && len(ix.Items[r]) > 0 {
			items := make([]string, len(ix.Items[r]))
			for i, id := range ix.Items[r] {
				items[i] = ix.ItemDict.Value(id)
			}
			d.Records[r].Items = items
		}
	}
	return d
}

// ScanRecords calls fn with each record in order, decoded from the
// interned columns, until fn returns false. The Values/Items slices are
// scratch buffers reused across iterations (the strings themselves are
// the interners' shared storage), so a full scan allocates O(columns),
// not O(records); callers must copy anything they keep past the
// callback. A record with an empty basket has nil Items.
func (ix *Indexed) ScanRecords(fn func(i int, rec Record) bool) {
	vals := make([]string, len(ix.Attrs))
	var items []string
	for r := 0; r < ix.N; r++ {
		for a := range ix.Attrs {
			vals[a] = ix.Dicts[a].Value(ix.Cols[a][r])
		}
		items = items[:0]
		if ix.ItemDict != nil {
			for _, id := range ix.Items[r] {
				items = append(items, ix.ItemDict.Value(id))
			}
		}
		rec := Record{Values: vals}
		if len(items) > 0 {
			rec.Items = items
		}
		if !fn(r, rec) {
			return
		}
	}
}
