package hierarchy

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Index is a one-time acceleration structure over a Hierarchy: nodes get
// dense int32 IDs in preorder (so every subtree is the contiguous ID range
// [id, id+SubtreeSize(id))), leaves get Euler-tour ordinals (so the leaf
// set of a subtree is the contiguous range [LeafLo, LeafHi)), and
// parent/depth/ancestor lookups become array reads. Algorithm hot loops —
// cut mapping, subtree NCP, violation repair — run on these IDs; the
// string values survive only at the edges.
//
// An Index is immutable once built and safe for concurrent use. Editing
// the hierarchy (AddLeaf, Rename, ...) invalidates it: Hierarchy.Index
// rebuilds on the next call.
type Index struct {
	h     *Hierarchy
	nodes []*Node          // ID -> node, preorder
	id    map[string]int32 // value -> ID
	par   []int32          // ID -> parent ID (-1 for the root)
	depth []int32          // ID -> distance from root
	size  []int32          // ID -> subtree size in nodes
	lo    []int32          // ID -> first leaf ordinal of the subtree
	hi    []int32          // ID -> one past the last leaf ordinal
	// atDepth[d] lists, for every node of depth >= d, its ancestor at
	// depth d — the ancestor-at-level table full-domain recoding levels
	// resolve through. atDepth[d][id] is -1 when depth(id) < d.
	atDepth   [][]int32
	leafIDs   []int32 // leaf ordinal -> node ID
	numLeaves int32
	// order[id] is the position of id's value among all node values in
	// ascending string order, so ID tuples sort by value on integers.
	order []int32
}

// Index returns the hierarchy's acceleration index, building it on first
// use. The index is cached; structural edits invalidate the cache.
func (h *Hierarchy) Index() *Index {
	if ix := h.index.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(h)
	// A concurrent builder may have raced us; either result is equivalent.
	h.index.CompareAndSwap(nil, ix)
	return h.index.Load()
}

// invalidateIndex drops the cached index after a structural edit.
func (h *Hierarchy) invalidateIndex() { h.index.Store(nil) }

func buildIndex(h *Hierarchy) *Index {
	n := len(h.nodes)
	ix := &Index{
		h:     h,
		nodes: make([]*Node, 0, n),
		id:    make(map[string]int32, n),
		par:   make([]int32, 0, n),
		depth: make([]int32, 0, n),
		size:  make([]int32, n),
		lo:    make([]int32, n),
		hi:    make([]int32, n),
	}
	var walk func(nd *Node, parent int32) int32
	walk = func(nd *Node, parent int32) int32 {
		id := int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, nd)
		ix.id[nd.Value] = id
		ix.par = append(ix.par, parent)
		d := int32(0)
		if parent >= 0 {
			d = ix.depth[parent] + 1
		}
		ix.depth = append(ix.depth, d)
		ix.lo[id] = ix.numLeaves
		if nd.IsLeaf() {
			ix.leafIDs = append(ix.leafIDs, id)
			ix.numLeaves++
		}
		for _, c := range nd.Children {
			walk(c, id)
		}
		ix.hi[id] = ix.numLeaves
		ix.size[id] = int32(len(ix.nodes)) - id
		return id
	}
	walk(h.Root, -1)
	// Ancestor-at-depth tables, one level at a time: the ancestor of id at
	// depth d is the ancestor of its parent at depth d (or id itself when
	// depth(id) == d).
	maxDepth := int32(0)
	for _, d := range ix.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	ix.atDepth = make([][]int32, maxDepth+1)
	for d := int32(0); d <= maxDepth; d++ {
		// Preorder IDs put every parent before its children, so within one
		// row the parent's entry is already filled when the child needs it
		// (depth(id) > d implies depth(parent) >= d).
		row := make([]int32, len(ix.nodes))
		for id := range row {
			switch {
			case ix.depth[id] == d:
				row[id] = int32(id)
			case ix.depth[id] > d:
				row[id] = row[ix.par[id]]
			default:
				row[id] = -1
			}
		}
		ix.atDepth[d] = row
	}
	byValue := make([]int32, n)
	for id := range byValue {
		byValue[id] = int32(id)
	}
	slices.SortFunc(byValue, func(a, b int32) int { return strings.Compare(ix.nodes[a].Value, ix.nodes[b].Value) })
	ix.order = make([]int32, n)
	for pos, id := range byValue {
		ix.order[id] = int32(pos)
	}
	return ix
}

// Len returns the number of nodes (the ID space).
func (ix *Index) Len() int { return len(ix.nodes) }

// NumLeaves returns the number of leaves (the leaf-ordinal space).
func (ix *Index) NumLeaves() int { return int(ix.numLeaves) }

// ID resolves a value to its dense node ID.
func (ix *Index) ID(value string) (int32, bool) {
	id, ok := ix.id[value]
	return id, ok
}

// MustID resolves a value, with an error for unknown values carrying the
// hierarchy's attribute name (matching the string API's error shape).
func (ix *Index) MustID(value string) (int32, error) {
	id, ok := ix.id[value]
	if !ok {
		return 0, fmt.Errorf("hierarchy %s: unknown value %q", ix.h.Attr, value)
	}
	return id, nil
}

// Node returns the tree node behind an ID.
func (ix *Index) Node(id int32) *Node { return ix.nodes[id] }

// Value returns the string value behind an ID.
func (ix *Index) Value(id int32) string { return ix.nodes[id].Value }

// Order returns the position of id's value in ascending value order:
// values are distinct, so comparing two IDs' orders compares their values.
func (ix *Index) Order(id int32) int32 { return ix.order[id] }

// Parent returns the parent ID (-1 for the root).
func (ix *Index) Parent(id int32) int32 { return ix.par[id] }

// Depth returns the node's distance from the root.
func (ix *Index) Depth(id int32) int32 { return ix.depth[id] }

// LCA returns the least common ancestor of two nodes — LCANodes on IDs.
func (ix *Index) LCA(a, b int32) int32 {
	for ix.depth[a] > ix.depth[b] {
		a = ix.par[a]
	}
	for ix.depth[b] > ix.depth[a] {
		b = ix.par[b]
	}
	for a != b {
		a, b = ix.par[a], ix.par[b]
	}
	return a
}

// SubtreeSize returns the number of nodes in id's subtree (including id);
// the subtree occupies the ID range [id, id+SubtreeSize(id)).
func (ix *Index) SubtreeSize(id int32) int32 { return ix.size[id] }

// LeafRange returns the Euler-tour leaf-ordinal range [lo, hi) covered by
// id's subtree; hi-lo is the subtree's leaf count.
func (ix *Index) LeafRange(id int32) (lo, hi int32) { return ix.lo[id], ix.hi[id] }

// LeafCount returns the number of leaves under id, an O(1) array read.
func (ix *Index) LeafCount(id int32) int32 { return ix.hi[id] - ix.lo[id] }

// LeafID returns the node ID of the leaf with the given ordinal.
func (ix *Index) LeafID(ordinal int32) int32 { return ix.leafIDs[ordinal] }

// GeneralizeLevels returns the ID of id's ancestor lvl steps up, capping
// at the root — the indexed counterpart of Hierarchy.GeneralizeLevels.
func (ix *Index) GeneralizeLevels(id int32, lvl int) int32 {
	d := ix.depth[id] - int32(lvl)
	if d < 0 {
		d = 0
	}
	return ix.atDepth[d][id]
}

// NCPNum returns the integer numerator contribution (leaves-1)*leaves of
// publishing id over its whole subtree; a Cut keeps the sum of these over
// its nodes, so its NCP is exact whatever order the sum was built in.
func (ix *Index) NCPNum(id int32) int64 {
	lc := int64(ix.LeafCount(id))
	return (lc - 1) * lc
}

// NCP returns the Normalized Certainty Penalty of publishing id instead of
// a leaf — Hierarchy.NCP without the map lookup.
func (ix *Index) NCP(id int32) float64 {
	total := int(ix.numLeaves)
	if total <= 1 {
		return 0
	}
	return float64(ix.LeafCount(id)-1) / float64(total-1)
}

// indexCache is the atomic slot Hierarchy embeds; a separate named type
// keeps the zero value usable.
type indexCache = atomic.Pointer[Index]
