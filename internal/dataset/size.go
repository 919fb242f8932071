package dataset

// sliceOverhead approximates the Go runtime cost of one slice header plus
// allocator slack; stringOverhead the header of one string. The estimates
// deliberately round up: memory-bounded caches built on ApproxBytes should
// err toward evicting early rather than overshooting their budget.
const (
	sliceOverhead  = 48
	stringOverhead = 16
)

// ApproxBytes estimates the in-memory size of the dataset: every string's
// bytes plus per-string and per-slice header overheads. It is an estimate
// for cache accounting (registry and result-cache byte caps), not an exact
// measurement; it scales linearly with records, values and items, which is
// what bounding resident memory needs.
func (d *Dataset) ApproxBytes() int64 {
	var n int64 = sliceOverhead // Attrs
	for _, a := range d.Attrs {
		n += stringOverhead + int64(len(a.Name)) + 8 // Kind
	}
	n += stringOverhead + int64(len(d.TransName))
	n += sliceOverhead // Records
	for i := range d.Records {
		n += recordBytes(d.Records[i])
	}
	return n
}

// ApproxBytes is the ApproxBytes of ix.Materialize(), summed from the
// columns by ID over a per-dictionary table of string costs instead of
// decoding any record.
func (ix *Indexed) ApproxBytes() int64 {
	n := (&Dataset{Attrs: ix.Attrs, TransName: ix.TransName}).ApproxBytes()
	n += int64(ix.N) * 2 * sliceOverhead // each record's Values, Items headers
	for a, col := range ix.Cols {
		cost := stringCosts(ix.Dicts[a])
		for _, id := range col {
			n += cost[id]
		}
	}
	if ix.ItemDict != nil {
		cost := stringCosts(ix.ItemDict)
		for _, basket := range ix.Items {
			for _, id := range basket {
				n += cost[id]
			}
		}
	}
	return n
}

// ResidentBytes estimates the memory the interned form itself holds: its
// ID columns, baskets and dictionaries — far less than ApproxBytes, the
// estimate of its string form. Dictionary strings are counted in full
// although they share their bytes with the dataset they were interned
// from, so the estimate errs high.
func (ix *Indexed) ResidentBytes() int64 {
	n := int64(sliceOverhead) * int64(2+len(ix.Cols)) // Cols, Dicts, each column
	for _, col := range ix.Cols {
		n += 4 * int64(len(col))
	}
	for _, d := range ix.Dicts {
		n += dictBytes(d)
	}
	if ix.ItemDict != nil {
		n += sliceOverhead * int64(1+len(ix.Items))
		for _, basket := range ix.Items {
			n += 4 * int64(cap(basket))
		}
		n += dictBytes(ix.ItemDict)
	}
	return n
}

// dictBytes estimates one dictionary: per value, its string, its slot in
// the value list and its entry in the ID map.
func dictBytes(d *Interner) int64 {
	n := int64(2 * sliceOverhead)
	for _, v := range d.Values() {
		n += 2*stringOverhead + 32 + int64(len(v))
	}
	return n
}

// stringCosts returns the estimated size of each of d's strings, by ID.
func stringCosts(d *Interner) []int64 {
	cost := make([]int64, d.Len())
	for id, v := range d.Values() {
		cost[id] = stringOverhead + int64(len(v))
	}
	return cost
}

// recordBytes estimates one record: its slice headers and strings.
func recordBytes(r Record) int64 {
	n := int64(2 * sliceOverhead) // Values, Items headers
	for _, v := range r.Values {
		n += stringOverhead + int64(len(v))
	}
	for _, it := range r.Items {
		n += stringOverhead + int64(len(it))
	}
	return n
}

// Meta is the cheap-to-read description of one stored dataset. The
// durable store keeps it, JSON-encoded, in a sidecar file so booting over
// a large data directory decodes no blob; the registry indexes its
// disk-only datasets by it.
type Meta struct {
	ID      string `json:"dataset_ref"`
	Attrs   int    `json:"attrs"`
	Records int    `json:"records"`
	// Bytes is the dataset's approximate in-RAM size (ApproxBytes), the
	// cost the registry LRU accounts with — not the blob's disk size.
	Bytes int64 `json:"bytes"`
}

// Meta describes d stored under id.
func (d *Dataset) Meta(id string) Meta {
	return Meta{ID: id, Attrs: len(d.Attrs), Records: len(d.Records), Bytes: d.ApproxBytes()}
}
