package hierarchy

import (
	"fmt"
	"slices"
	"strings"
)

// Cut is an antichain through a hierarchy that covers every leaf exactly
// once: the state of subtree-style generalization schemes. Top-down
// specialization starts from the root cut and refines it; bottom-up
// generalization starts from the leaf cut and coarsens it; the Apriori
// transaction algorithm moves a cut over the item hierarchy.
//
// A cut lives on the hierarchy's Index: mapping a node through it is one
// array read, its NCP numerator is kept up to date, and specializing or
// generalizing is a range fill over preorder IDs. The ID methods serve
// algorithm loops; the value methods wrap them for callers holding
// strings. Editing the hierarchy after creating a cut invalidates the cut.
type Cut struct {
	ix *Index
	// on marks the IDs currently on the cut.
	on []bool
	// anc[id] is the cut node covering id, or id itself for nodes
	// strictly above the cut.
	anc []int32
	// num is the NCP numerator: the sum of NCPNum over the cut's nodes.
	num int64
}

// NewCut returns the most general cut: just the root.
func NewCut(h *Hierarchy) *Cut {
	ix := h.Index()
	c := &Cut{ix: ix, on: make([]bool, ix.Len()), anc: make([]int32, ix.Len()), num: ix.NCPNum(0)}
	c.on[0] = true
	return c
}

// NewLeafCut returns the most specific cut: all leaves, with every node
// mapping to itself.
func NewLeafCut(h *Hierarchy) *Cut {
	c := NewCut(h)
	c.on[0], c.num = false, 0
	for id := range c.anc {
		c.anc[id] = int32(id)
	}
	for _, id := range c.ix.leafIDs {
		c.on[id] = true
	}
	return c
}

// Index returns the hierarchy index the cut's IDs refer to.
func (c *Cut) Index() *Index { return c.ix }

// Clone copies the cut.
func (c *Cut) Clone() *Cut {
	return &Cut{ix: c.ix, on: slices.Clone(c.on), anc: slices.Clone(c.anc), num: c.num}
}

// MapID returns the cut node covering id (id itself above the cut).
func (c *Cut) MapID(id int32) int32 { return c.anc[id] }

// IDs returns the cut's node IDs sorted by value, the order of Nodes.
func (c *Cut) IDs() []int32 {
	ids := make([]int32, 0, c.ix.NumLeaves())
	for id, on := range c.on {
		if on {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(c.ix.Value(a), c.ix.Value(b)) })
	return ids
}

// SpecializeID replaces the cut node id with its children (top-down
// refinement): one range fill per child. Leaves cannot be specialized.
func (c *Cut) SpecializeID(id int32) error {
	if !c.on[id] {
		return fmt.Errorf("hierarchy %s: %q is not on the cut", c.ix.h.Attr, c.ix.Value(id))
	}
	end := id + c.ix.size[id]
	if end == id+1 {
		return fmt.Errorf("hierarchy %s: cannot specialize leaf %q", c.ix.h.Attr, c.ix.Value(id))
	}
	c.on[id] = false
	c.num -= c.ix.NCPNum(id)
	for ch := id + 1; ch < end; ch += c.ix.size[ch] {
		c.on[ch] = true
		c.num += c.ix.NCPNum(ch)
		for j := ch; j < ch+c.ix.size[ch]; j++ {
			c.anc[j] = ch
		}
	}
	return nil
}

// GeneralizeID replaces every cut node under id's parent with the parent
// (bottom-up coarsening): one range fill over the parent's subtree.
func (c *Cut) GeneralizeID(id int32) error {
	if !c.on[id] {
		return fmt.Errorf("hierarchy %s: %q is not on the cut", c.ix.h.Attr, c.ix.Value(id))
	}
	p := c.ix.par[id]
	if p < 0 {
		return fmt.Errorf("hierarchy %s: cannot generalize the root", c.ix.h.Attr)
	}
	for j, end := p, p+c.ix.size[p]; j < end; j++ {
		if c.on[j] {
			c.num -= c.ix.NCPNum(j)
			c.on[j] = false
		}
		c.anc[j] = p
	}
	c.on[p] = true
	c.num += c.ix.NCPNum(p)
	return nil
}

// GeneralizeDeltaNum returns the change GeneralizeID(id) would make to the
// NCP numerator, without mutating the cut. ok is false when id is not on
// the cut or is the root, the cases GeneralizeID rejects.
func (c *Cut) GeneralizeDeltaNum(id int32) (delta int64, ok bool) {
	if !c.on[id] {
		return 0, false
	}
	p := c.ix.par[id]
	if p < 0 {
		return 0, false
	}
	delta = c.ix.NCPNum(p)
	for j, end := p, p+c.ix.size[p]; j < end; j++ {
		if c.on[j] {
			delta -= c.ix.NCPNum(j)
		}
	}
	return delta, true
}

// NCPNumerator returns the integer numerator of the cut's NCP.
func (c *Cut) NCPNumerator() int64 { return c.num }

// Contains reports whether the node for value is on the cut.
func (c *Cut) Contains(value string) bool {
	id, ok := c.ix.ID(value)
	return ok && c.on[id]
}

// Nodes returns the cut's nodes sorted by value for deterministic output.
func (c *Cut) Nodes() []*Node {
	ids := c.IDs()
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = c.ix.Node(id)
	}
	return out
}

// Values returns the cut's values, sorted.
func (c *Cut) Values() []string {
	ids := c.IDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.ix.Value(id)
	}
	return out
}

// Map returns the cut value covering the given original value: the unique
// cut ancestor (or the value itself when it is on the cut). A value
// strictly above the cut, already more general than the cut allows, maps
// to itself.
func (c *Cut) Map(value string) (string, error) {
	id, err := c.ix.MustID(value)
	if err != nil {
		return "", err
	}
	return c.ix.Value(c.anc[id]), nil
}

// Specialize replaces a cut node with its children (top-down refinement).
// Leaf nodes cannot be specialized.
func (c *Cut) Specialize(value string) error {
	id, err := c.ix.MustID(value)
	if err != nil {
		return err
	}
	return c.SpecializeID(id)
}

// Generalize replaces a cut node and all its cut siblings (every cut node
// under the parent) with the parent (bottom-up coarsening).
func (c *Cut) Generalize(value string) error {
	id, err := c.ix.MustID(value)
	if err != nil {
		return err
	}
	return c.GeneralizeID(id)
}

// Validate checks the antichain property: every leaf has exactly one cut
// ancestor (counting itself).
func (c *Cut) Validate() error {
	for _, leaf := range c.ix.leafIDs {
		covered := 0
		for id := leaf; id >= 0; id = c.ix.par[id] {
			if c.on[id] {
				covered++
			}
		}
		if covered != 1 {
			return fmt.Errorf("hierarchy %s: leaf %q covered %d times by cut", c.ix.h.Attr, c.ix.Value(leaf), covered)
		}
	}
	return nil
}

// NCP returns the average NCP of the cut's nodes weighted by the number of
// leaves each covers: the information loss of publishing at this cut,
// assuming uniform leaf frequencies. Per node that is NCP(n)*leaves(n) =
// (leaves-1)/(total-1) * leaves. The numerator is an exact integer and
// the division happens once, so algorithms that tie-break on NCP deltas
// (Apriori's repair choice) see the same low-order bits on every run.
func (c *Cut) NCP() float64 {
	total := int(c.ix.numLeaves)
	if total <= 1 {
		return 0
	}
	return float64(c.num) / (float64(total-1) * float64(total))
}
