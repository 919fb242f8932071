// Package hierarchy implements domain generalization hierarchies (DGHs),
// the substrate of every hierarchy-based algorithm in SECRETA (all but COAT
// and PCTA, which use policies instead). A Hierarchy is a rooted tree whose
// leaves are the original domain values and whose interior nodes are
// progressively more general values. The package supports parsing and
// serializing path-style CSV files, automatic generation for numeric and
// categorical domains, least-common-ancestor queries, level-based
// generalization for full-domain recoding, and cuts (antichains) for
// subtree-style recoding.
package hierarchy

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Node is one value in the hierarchy tree.
type Node struct {
	Value    string
	Parent   *Node
	Children []*Node

	depth     int // distance from root
	leafCount int // number of leaves in this subtree
}

// Depth returns the node's distance from the root (root = 0).
func (n *Node) Depth() int { return n.depth }

// LeafCount returns the number of leaf values the node covers.
func (n *Node) LeafCount() int { return n.leafCount }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Leaves returns the leaf values covered by the node, in tree order.
func (n *Node) Leaves() []string {
	var out []string
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m.Value)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Hierarchy is a DGH for one attribute. Values are unique across the tree.
type Hierarchy struct {
	Attr  string
	Root  *Node
	nodes map[string]*Node
	// height is the maximum leaf depth; full-domain generalization levels
	// range over 0..height.
	height int
	// index caches the dense-ID acceleration structure (see Index) and
	// digest the content digest (see Digest); edits clear both.
	index  indexCache
	digest atomic.Pointer[string]
}

// Height returns the maximum generalization level (root level).
func (h *Hierarchy) Height() int { return h.height }

// Node returns the node for a value, or nil when the value is unknown.
func (h *Hierarchy) Node(value string) *Node { return h.nodes[value] }

// Contains reports whether value appears anywhere in the hierarchy.
func (h *Hierarchy) Contains(value string) bool { return h.nodes[value] != nil }

// Size returns the total number of nodes.
func (h *Hierarchy) Size() int { return len(h.nodes) }

// Leaves returns all leaf values in tree order.
func (h *Hierarchy) Leaves() []string { return h.Root.Leaves() }

// nodeBytes rounds up what one node costs in memory: the Node itself, its
// slot in its parent's children, its entries in the value maps of the
// hierarchy and of its Index, and its slots in the Index's per-node arrays.
const nodeBytes = 224

// ApproxBytes estimates the memory the hierarchy holds, its Index
// included whether or not it has been built yet. It errs high, for byte
// caps over caches that keep hierarchies alive.
func (h *Hierarchy) ApproxBytes() int64 {
	// The Index adds one int32 per node per depth level (atDepth).
	n := int64(len(h.nodes)) * (nodeBytes + 4*int64(h.height+1))
	for v := range h.nodes {
		n += int64(len(v))
	}
	return n
}

// finalize computes depths, heights and leaf counts after construction.
func (h *Hierarchy) finalize() {
	h.invalidateCaches()
	h.height = 0
	var walk func(n *Node, depth int) int
	walk = func(n *Node, depth int) int {
		n.depth = depth
		if n.IsLeaf() {
			n.leafCount = 1
			if depth > h.height {
				h.height = depth
			}
			return 1
		}
		total := 0
		for _, c := range n.Children {
			total += walk(c, depth+1)
		}
		n.leafCount = total
		return total
	}
	walk(h.Root, 0)
}

// GeneralizeLevels maps value to its ancestor lvl steps up, capping at the
// root. Full-domain recoding at lattice level l applies this to every
// original value. Unknown values return an error.
func (h *Hierarchy) GeneralizeLevels(value string, lvl int) (string, error) {
	n := h.nodes[value]
	if n == nil {
		return "", fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, value)
	}
	for i := 0; i < lvl && n.Parent != nil; i++ {
		n = n.Parent
	}
	return n.Value, nil
}

// LCA returns the least common ancestor node of two values, or an error
// when either is unknown.
func (h *Hierarchy) LCA(a, b string) (*Node, error) {
	na, nb := h.nodes[a], h.nodes[b]
	if na == nil {
		return nil, fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, a)
	}
	if nb == nil {
		return nil, fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, b)
	}
	for na.depth > nb.depth {
		na = na.Parent
	}
	for nb.depth > na.depth {
		nb = nb.Parent
	}
	for na != nb {
		na = na.Parent
		nb = nb.Parent
	}
	return na, nil
}

// LCANodes returns the least common ancestor of two nodes of the same
// hierarchy — LCA without the value lookups, for hot loops that already
// hold node pointers.
func LCANodes(a, b *Node) *Node {
	for a.depth > b.depth {
		a = a.Parent
	}
	for b.depth > a.depth {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// NCPNode returns the Normalized Certainty Penalty of publishing n —
// NCP without the value lookup, for hot loops that hold node pointers.
func (h *Hierarchy) NCPNode(n *Node) float64 {
	total := h.Root.leafCount
	if total <= 1 {
		return 0
	}
	return float64(n.leafCount-1) / float64(total-1)
}

// NCP returns the Normalized Certainty Penalty of publishing value instead
// of a leaf: (leaves(value)-1) / (totalLeaves-1), i.e. 0 for leaves and 1
// for the root of a non-trivial hierarchy.
func (h *Hierarchy) NCP(value string) (float64, error) {
	n := h.nodes[value]
	if n == nil {
		return 0, fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, value)
	}
	total := h.Root.leafCount
	if total <= 1 {
		return 0, nil
	}
	return float64(n.leafCount-1) / float64(total-1), nil
}

// Covers reports whether general is value itself or one of its ancestors.
func (h *Hierarchy) Covers(general, value string) bool {
	n := h.nodes[value]
	g := h.nodes[general]
	if n == nil || g == nil {
		return false
	}
	for n != nil {
		if n == g {
			return true
		}
		n = n.Parent
	}
	return false
}

// Validate checks structural invariants: unique values, single root,
// consistent parent/child links, and positive leaf counts.
func (h *Hierarchy) Validate() error {
	if h.Root == nil {
		return fmt.Errorf("hierarchy %s: nil root", h.Attr)
	}
	if h.Root.Parent != nil {
		return fmt.Errorf("hierarchy %s: root has a parent", h.Attr)
	}
	seen := make(map[string]bool)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if seen[n.Value] {
			return fmt.Errorf("hierarchy %s: duplicate value %q", h.Attr, n.Value)
		}
		seen[n.Value] = true
		if h.nodes[n.Value] != n {
			return fmt.Errorf("hierarchy %s: node index out of sync for %q", h.Attr, n.Value)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("hierarchy %s: broken parent link at %q", h.Attr, c.Value)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.Root); err != nil {
		return err
	}
	if len(seen) != len(h.nodes) {
		return fmt.Errorf("hierarchy %s: index has %d values, tree has %d", h.Attr, len(h.nodes), len(seen))
	}
	return nil
}

// Builder assembles a hierarchy from parent/child edges.
type Builder struct {
	attr  string
	nodes map[string]*Node
	err   error
}

// NewBuilder starts a builder for the named attribute.
func NewBuilder(attr string) *Builder {
	return &Builder{attr: attr, nodes: make(map[string]*Node)}
}

func (b *Builder) node(value string) *Node {
	n := b.nodes[value]
	if n == nil {
		n = &Node{Value: value}
		b.nodes[value] = n
	}
	return n
}

// Add records that child generalizes to parent. The first error sticks and
// is reported by Build.
func (b *Builder) Add(parent, child string) *Builder {
	if b.err != nil {
		return b
	}
	if parent == "" || child == "" {
		b.err = fmt.Errorf("hierarchy %s: empty value in edge %q -> %q", b.attr, child, parent)
		return b
	}
	if parent == child {
		b.err = fmt.Errorf("hierarchy %s: self-edge at %q", b.attr, parent)
		return b
	}
	p, c := b.node(parent), b.node(child)
	if c.Parent != nil && c.Parent != p {
		b.err = fmt.Errorf("hierarchy %s: %q has two parents (%q and %q)", b.attr, child, c.Parent.Value, parent)
		return b
	}
	if c.Parent == p {
		return b
	}
	c.Parent = p
	p.Children = append(p.Children, c)
	return b
}

// Build finalizes the hierarchy, checking that the edges form one rooted
// tree with no cycles.
func (b *Builder) Build() (*Hierarchy, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("hierarchy %s: no nodes", b.attr)
	}
	var roots []*Node
	for _, n := range b.nodes {
		if n.Parent == nil {
			roots = append(roots, n)
		}
	}
	if len(roots) != 1 {
		names := make([]string, 0, len(roots))
		for _, r := range roots {
			names = append(names, r.Value)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("hierarchy %s: want exactly one root, found %d %v", b.attr, len(roots), names)
	}
	// Cycle check: every node must reach the root.
	for _, n := range b.nodes {
		slow, fast := n, n
		for fast != nil && fast.Parent != nil {
			slow, fast = slow.Parent, fast.Parent.Parent
			if slow == fast {
				return nil, fmt.Errorf("hierarchy %s: cycle involving %q", b.attr, n.Value)
			}
		}
	}
	h := &Hierarchy{Attr: b.attr, Root: roots[0], nodes: b.nodes}
	h.finalize()
	return h, nil
}
