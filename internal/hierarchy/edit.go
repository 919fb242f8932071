package hierarchy

import "fmt"

// Editing operations backing the Configuration Editor's hierarchy pane
// ("fully browsable and editable"). All operations re-finalize depths and
// leaf counts, so the hierarchy stays consistent for concurrent readers
// created afterwards.

// AddLeaf attaches a new leaf under the named parent node.
func (h *Hierarchy) AddLeaf(parent, value string) error {
	if value == "" {
		return fmt.Errorf("hierarchy %s: empty value", h.Attr)
	}
	if h.nodes[value] != nil {
		return fmt.Errorf("hierarchy %s: value %q already exists", h.Attr, value)
	}
	p := h.nodes[parent]
	if p == nil {
		return fmt.Errorf("hierarchy %s: unknown parent %q", h.Attr, parent)
	}
	n := &Node{Value: value, Parent: p}
	p.Children = append(p.Children, n)
	h.nodes[value] = n
	h.finalize()
	return nil
}

// Rename changes a node's value in place; data referring to the old value
// must be rewritten by the caller (dataset.ReplaceValue / ReplaceItem).
func (h *Hierarchy) Rename(old, new string) error {
	if new == "" {
		return fmt.Errorf("hierarchy %s: empty value", h.Attr)
	}
	n := h.nodes[old]
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, old)
	}
	if h.nodes[new] != nil {
		return fmt.Errorf("hierarchy %s: value %q already exists", h.Attr, new)
	}
	delete(h.nodes, old)
	n.Value = new
	h.nodes[new] = n
	h.invalidateCaches()
	return nil
}

// RemoveLeaf deletes a leaf. Interior nodes cannot be removed directly
// (use CollapseNode), and the root cannot be removed. An interior node
// left childless by the removal becomes a leaf itself.
func (h *Hierarchy) RemoveLeaf(value string) error {
	n := h.nodes[value]
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, value)
	}
	if !n.IsLeaf() {
		return fmt.Errorf("hierarchy %s: %q is not a leaf", h.Attr, value)
	}
	if n.Parent == nil {
		return fmt.Errorf("hierarchy %s: cannot remove the root", h.Attr)
	}
	p := n.Parent
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	delete(h.nodes, value)
	h.finalize()
	return nil
}

// CollapseNode removes an interior node, reattaching its children to its
// parent — flattening one level of the hierarchy.
func (h *Hierarchy) CollapseNode(value string) error {
	n := h.nodes[value]
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, value)
	}
	if n.IsLeaf() {
		return fmt.Errorf("hierarchy %s: %q is a leaf; use RemoveLeaf", h.Attr, value)
	}
	if n.Parent == nil {
		return fmt.Errorf("hierarchy %s: cannot collapse the root", h.Attr)
	}
	p := n.Parent
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	for _, c := range n.Children {
		c.Parent = p
		p.Children = append(p.Children, c)
	}
	delete(h.nodes, value)
	h.finalize()
	return nil
}

// MoveSubtree detaches the subtree rooted at value and reattaches it under
// newParent. Moves that would create a cycle (newParent inside the
// subtree) or detach the root are rejected.
func (h *Hierarchy) MoveSubtree(value, newParent string) error {
	n := h.nodes[value]
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", h.Attr, value)
	}
	if n.Parent == nil {
		return fmt.Errorf("hierarchy %s: cannot move the root", h.Attr)
	}
	np := h.nodes[newParent]
	if np == nil {
		return fmt.Errorf("hierarchy %s: unknown parent %q", h.Attr, newParent)
	}
	for m := np; m != nil; m = m.Parent {
		if m == n {
			return fmt.Errorf("hierarchy %s: moving %q under %q would create a cycle", h.Attr, value, newParent)
		}
	}
	if np == n.Parent {
		return nil
	}
	p := n.Parent
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = np
	np.Children = append(np.Children, n)
	h.finalize()
	return nil
}
