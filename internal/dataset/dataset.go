// Package dataset implements the data model behind SECRETA's Dataset Editor:
// tabular datasets whose attributes are relational (categorical or numeric)
// and, optionally, a single transaction (set-valued) attribute. It supports
// loading and storing CSV and JSON files, record- and attribute-level
// editing, and the per-attribute statistics the frontend visualizes. Two
// derived quantities serve the service layer: Fingerprint, an injective
// content hash that keys the result cache and addresses the dataset
// registry, and ApproxBytes, the size estimate those caches bound memory
// with.
package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies an attribute.
type Kind int

const (
	// Categorical attributes hold unordered string values.
	Categorical Kind = iota
	// Numeric attributes hold values parseable as floats; they support
	// range queries and numeric hierarchies.
	Numeric
	// Transaction marks the set-valued attribute (at most one per dataset).
	Transaction
)

// String returns the kind name used in CSV headers and CLI output.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	case Transaction:
		return "transaction"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a kind name back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "categorical", "cat", "c":
		return Categorical, nil
	case "numeric", "num", "n":
		return Numeric, nil
	case "transaction", "trans", "t", "set":
		return Transaction, nil
	}
	return 0, fmt.Errorf("dataset: unknown attribute kind %q", s)
}

// Attribute describes one relational column.
type Attribute struct {
	Name string
	Kind Kind
}

// Record is one row: relational values aligned with Dataset.Attrs, plus the
// item set of the transaction attribute (nil when the dataset has none).
// Items are kept sorted and deduplicated by the Dataset mutators.
type Record struct {
	Values []string
	Items  []string
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := Record{}
	if r.Values != nil {
		out.Values = append([]string(nil), r.Values...)
	}
	if r.Items != nil {
		out.Items = append([]string(nil), r.Items...)
	}
	return out
}

// HasItem reports whether the record's transaction part contains item.
// Items are sorted, so this is a binary search.
func (r Record) HasItem(item string) bool {
	i := sort.SearchStrings(r.Items, item)
	return i < len(r.Items) && r.Items[i] == item
}

// Dataset is an editable table of records. TransName is the display name of
// the transaction attribute and is empty for purely relational datasets.
type Dataset struct {
	Attrs     []Attribute
	TransName string
	Records   []Record
}

// New creates an empty dataset with the given relational attributes and
// optional transaction attribute name (empty for none).
func New(attrs []Attribute, transName string) *Dataset {
	return &Dataset{Attrs: append([]Attribute(nil), attrs...), TransName: transName}
}

// HasTransaction reports whether the dataset has a transaction attribute.
func (d *Dataset) HasTransaction() bool { return d.TransName != "" }

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// AttrIndex returns the index of the named relational attribute, or -1.
func (d *Dataset) AttrIndex(name string) int {
	for i, a := range d.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// AttrNames returns the relational attribute names in column order.
func (d *Dataset) AttrNames() []string {
	out := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		out[i] = a.Name
	}
	return out
}

// QIIndices resolves a list of quasi-identifier attribute names to column
// indices, defaulting to all relational attributes when names is empty.
func (d *Dataset) QIIndices(names []string) ([]int, error) {
	if len(names) == 0 {
		out := make([]int, len(d.Attrs))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, 0, len(names))
	for _, n := range names {
		i := d.AttrIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("dataset: no attribute named %q", n)
		}
		out = append(out, i)
	}
	return out, nil
}

// AddRecord validates and appends a record. The transaction items are
// sorted and deduplicated in place.
func (d *Dataset) AddRecord(rec Record) error {
	if len(rec.Values) != len(d.Attrs) {
		return fmt.Errorf("dataset: record has %d values, want %d", len(rec.Values), len(d.Attrs))
	}
	if !d.HasTransaction() && len(rec.Items) > 0 {
		return fmt.Errorf("dataset: record has items but dataset has no transaction attribute")
	}
	rec.Items = normalizeItems(rec.Items)
	d.Records = append(d.Records, rec)
	return nil
}

func normalizeItems(items []string) []string {
	if len(items) == 0 {
		return nil
	}
	sorted := append([]string(nil), items...)
	sort.Strings(sorted)
	out := sorted[:0]
	for i, it := range sorted {
		if it == "" {
			continue
		}
		if i > 0 && sorted[i-1] == it {
			continue
		}
		out = append(out, it)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Clone returns a deep copy of the dataset. Anonymization algorithms clone
// their input so the original data is never mutated.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Attrs:     append([]Attribute(nil), d.Attrs...),
		TransName: d.TransName,
		Records:   make([]Record, len(d.Records)),
	}
	for i := range d.Records {
		out.Records[i] = d.Records[i].Clone()
	}
	return out
}

// Column returns a copy of the values of relational attribute i.
func (d *Dataset) Column(i int) []string {
	out := make([]string, len(d.Records))
	for j := range d.Records {
		out[j] = d.Records[j].Values[i]
	}
	return out
}

// Domain returns the sorted distinct values of relational attribute i.
// Numeric attributes are sorted numerically.
func (d *Dataset) Domain(i int) []string {
	seen := make(map[string]struct{})
	for j := range d.Records {
		seen[d.Records[j].Values[i]] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	if d.Attrs[i].Kind == Numeric {
		sort.Slice(out, func(a, b int) bool {
			fa, ea := strconv.ParseFloat(out[a], 64)
			fb, eb := strconv.ParseFloat(out[b], 64)
			if ea == nil && eb == nil {
				return fa < fb
			}
			return out[a] < out[b]
		})
	} else {
		sort.Strings(out)
	}
	return out
}

// ItemDomain returns the sorted distinct items of the transaction attribute.
func (d *Dataset) ItemDomain() []string {
	seen := make(map[string]struct{})
	for i := range d.Records {
		for _, it := range d.Records[i].Items {
			seen[it] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural consistency: value arity, item ordering, and
// transaction presence. It is cheap enough to run after batch edits.
func (d *Dataset) Validate() error {
	names := make(map[string]struct{}, len(d.Attrs))
	for _, a := range d.Attrs {
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute with empty name")
		}
		if a.Kind == Transaction {
			return fmt.Errorf("dataset: attribute %q declared with Transaction kind; use TransName", a.Name)
		}
		if _, dup := names[a.Name]; dup {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		names[a.Name] = struct{}{}
	}
	if d.TransName != "" {
		if _, dup := names[d.TransName]; dup {
			return fmt.Errorf("dataset: transaction attribute %q collides with a relational attribute", d.TransName)
		}
	}
	for i := range d.Records {
		r := &d.Records[i]
		if len(r.Values) != len(d.Attrs) {
			return fmt.Errorf("dataset: record %d has %d values, want %d", i, len(r.Values), len(d.Attrs))
		}
		if !d.HasTransaction() && len(r.Items) > 0 {
			return fmt.Errorf("dataset: record %d has items but dataset has no transaction attribute", i)
		}
		if !sort.StringsAreSorted(r.Items) {
			return fmt.Errorf("dataset: record %d items are not sorted", i)
		}
		for j := 1; j < len(r.Items); j++ {
			if r.Items[j] == r.Items[j-1] {
				return fmt.Errorf("dataset: record %d has duplicate item %q", i, r.Items[j])
			}
		}
	}
	return nil
}

// DetectKinds re-classifies every relational attribute as Numeric when all
// its non-empty values parse as floats, and Categorical otherwise. It is
// used after loading a CSV without kind annotations.
func (d *Dataset) DetectKinds() {
	for i := range d.Attrs {
		numeric := true
		seen := false
		for j := range d.Records {
			v := d.Records[j].Values[i]
			if v == "" {
				continue
			}
			seen = true
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				numeric = false
				break
			}
		}
		if seen && numeric {
			d.Attrs[i].Kind = Numeric
		} else {
			d.Attrs[i].Kind = Categorical
		}
	}
}
