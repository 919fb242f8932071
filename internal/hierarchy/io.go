package hierarchy

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"os"
)

// Path-style CSV serialization: every row is the generalization path of one
// leaf, from the leaf up to the root, e.g.
//
//	25,[20-29],[0-49],Any
//	31,[30-39],[0-49],Any
//
// Rows may have different lengths (unbalanced hierarchies). This is the
// format SECRETA's Configuration Editor loads from files.

// ReadCSV parses a path-style hierarchy file for the named attribute.
func ReadCSV(attr string, r io.Reader) (*Hierarchy, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("hierarchy %s: reading CSV: %w", attr, err)
	}
	b := NewBuilder(attr)
	n := 0
	for _, row := range rows {
		if len(row) == 0 || (len(row) == 1 && row[0] == "") {
			continue
		}
		n++
		if len(row) == 1 {
			return nil, fmt.Errorf("hierarchy %s: path row %q has a single value; need leaf and at least the root", attr, row[0])
		}
		for i := 0; i+1 < len(row); i++ {
			b.Add(row[i+1], row[i])
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("hierarchy %s: empty hierarchy file", attr)
	}
	return b.Build()
}

// WriteCSV serializes the hierarchy in path-style CSV, one row per leaf.
func (h *Hierarchy) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	var walk func(n *Node, path []string) error
	walk = func(n *Node, path []string) error {
		path = append(path, n.Value)
		if n.IsLeaf() {
			row := make([]string, len(path))
			for i := range path {
				row[i] = path[len(path)-1-i]
			}
			return cw.Write(row)
		}
		for _, c := range n.Children {
			if err := walk(c, path); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.Root, nil); err != nil {
		return fmt.Errorf("hierarchy %s: writing CSV: %w", h.Attr, err)
	}
	cw.Flush()
	return cw.Error()
}

// Digest returns the hex SHA-256 of the hierarchy's WriteCSV bytes, the
// content key result caches use, computing it on first use. Like Index,
// the digest is cached and structural edits invalidate it, so a hierarchy
// shared by many jobs is serialized once, not once per job.
func (h *Hierarchy) Digest() string {
	if d := h.digest.Load(); d != nil {
		return *d
	}
	sum := sha256.New()
	h.WriteCSV(sum) // a hash never fails a write
	d := hex.EncodeToString(sum.Sum(nil))
	// A concurrent caller may have raced us; both digests are equal.
	h.digest.CompareAndSwap(nil, &d)
	return d
}

// LoadFile reads a path-style hierarchy CSV from disk.
func LoadFile(attr, path string) (*Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(attr, f)
}

// SaveFile writes the hierarchy to disk in path-style CSV.
func (h *Hierarchy) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
