package hierarchy

import (
	"fmt"
	"sort"
	"strconv"
)

// Automatic hierarchy generation, the backend of SECRETA's Policy
// Specification Module option "derive hierarchies from the data". Numeric
// domains get balanced range trees; categorical and item domains get
// balanced trees over the sorted domain with synthesized interior labels,
// following the generation scheme of Terrovitis et al. (VLDB J. 2011).

// AutoNumeric builds a balanced hierarchy over the distinct numeric values
// with the given fanout (minimum 2). Interior nodes are labeled with the
// inclusive range they cover, e.g. "[25-40]".
func AutoNumeric(attr string, values []string, fanout int) (*Hierarchy, error) {
	if fanout < 2 {
		fanout = 2
	}
	distinct, err := distinctSortedNumeric(values)
	if err != nil {
		return nil, fmt.Errorf("hierarchy %s: %w", attr, err)
	}
	if len(distinct) == 0 {
		return nil, fmt.Errorf("hierarchy %s: no values", attr)
	}
	label := func(group []*Node) string {
		lo := numericLow(group[0])
		hi := numericHigh(group[len(group)-1])
		return "[" + lo + "-" + hi + "]"
	}
	return autoBuild(attr, distinct, fanout, label)
}

// AutoCategorical builds a balanced hierarchy over the sorted distinct
// values with the given fanout. Interior labels enumerate the covered range
// as "{first..last}".
func AutoCategorical(attr string, values []string, fanout int) (*Hierarchy, error) {
	if fanout < 2 {
		fanout = 2
	}
	distinct := distinctSorted(values)
	if len(distinct) == 0 {
		return nil, fmt.Errorf("hierarchy %s: no values", attr)
	}
	label := func(group []*Node) string {
		first, last := firstLeaf(group[0]), lastLeaf(group[len(group)-1])
		return "{" + first + ".." + last + "}"
	}
	return autoBuild(attr, distinct, fanout, label)
}

// autoBuild layers groups of size fanout bottom-up until one root remains.
func autoBuild(attr string, leaves []string, fanout int, label func([]*Node) string) (*Hierarchy, error) {
	nodes := make(map[string]*Node, 2*len(leaves))
	level := make([]*Node, len(leaves))
	for i, v := range leaves {
		n := &Node{Value: v}
		if nodes[v] != nil {
			return nil, fmt.Errorf("hierarchy %s: duplicate leaf %q", attr, v)
		}
		nodes[v] = n
		level[i] = n
	}
	for len(level) > 1 {
		var next []*Node
		for i := 0; i < len(level); i += fanout {
			j := i + fanout
			if j > len(level) {
				j = len(level)
			}
			group := level[i:j]
			if len(group) == 1 && len(next) > 0 {
				// Avoid chains: fold a trailing singleton into the
				// previous group.
				prev := next[len(next)-1]
				group[0].Parent = prev
				prev.Children = append(prev.Children, group[0])
				relabel(prev, nodes, label)
				continue
			}
			v := label(group)
			// Guard against label collisions with existing values.
			base := v
			for k := 2; nodes[v] != nil; k++ {
				v = fmt.Sprintf("%s#%d", base, k)
			}
			parent := &Node{Value: v, Children: append([]*Node(nil), group...)}
			for _, c := range group {
				c.Parent = parent
			}
			nodes[v] = parent
			next = append(next, parent)
		}
		level = next
	}
	h := &Hierarchy{Attr: attr, Root: level[0], nodes: nodes}
	h.finalize()
	return h, nil
}

// relabel recomputes an interior node's label after its children changed,
// keeping the node index consistent.
func relabel(n *Node, nodes map[string]*Node, label func([]*Node) string) {
	delete(nodes, n.Value)
	v := label(n.Children)
	base := v
	for k := 2; nodes[v] != nil; k++ {
		v = fmt.Sprintf("%s#%d", base, k)
	}
	n.Value = v
	nodes[v] = n
}

// distinctSorted returns the distinct non-empty values in string order.
// Its seen-set is not pre-sized to len(values): a column holds a handful
// of distinct values, and a set sized for every record would allocate
// hundreds of times what it uses.
func distinctSorted(values []string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, v := range values {
		if v == "" {
			continue
		}
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// distinctSortedNumeric is distinctSorted in numeric order.
func distinctSortedNumeric(values []string) ([]string, error) {
	type pair struct {
		s string
		f float64
	}
	seen := make(map[string]struct{})
	var ps []pair
	for _, v := range values {
		if v == "" {
			continue
		}
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("non-numeric value %q", v)
		}
		ps = append(ps, pair{v, f})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].f < ps[j].f })
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.s
	}
	return out, nil
}

// numericLow extracts the lowest leaf label under n (leaves are kept in
// sorted order by construction).
func numericLow(n *Node) string { return firstLeaf(n) }

// numericHigh extracts the highest leaf label under n.
func numericHigh(n *Node) string { return lastLeaf(n) }

func firstLeaf(n *Node) string {
	for !n.IsLeaf() {
		n = n.Children[0]
	}
	return n.Value
}

func lastLeaf(n *Node) string {
	for !n.IsLeaf() {
		n = n.Children[len(n.Children)-1]
	}
	return n.Value
}
