package hierarchy

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// refCut is the map-based cut the dense Cut replaced, kept as the
// reference its behaviour is pinned to: the set of on-cut nodes, with
// every operation walking node pointers.
type refCut struct {
	h  *Hierarchy
	in map[*Node]bool
}

func newRefCut(h *Hierarchy) *refCut {
	return &refCut{h: h, in: map[*Node]bool{h.Root: true}}
}

func newRefLeafCut(h *Hierarchy) *refCut {
	c := &refCut{h: h, in: make(map[*Node]bool)}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			c.in[n] = true
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(h.Root)
	return c
}

func (c *refCut) Contains(value string) bool {
	n := c.h.Node(value)
	return n != nil && c.in[n]
}

func (c *refCut) Nodes() []*Node {
	out := make([]*Node, 0, len(c.in))
	for n := range c.in {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

func (c *refCut) Values() []string {
	ns := c.Nodes()
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Value
	}
	return out
}

func (c *refCut) Map(value string) (string, error) {
	n := c.h.Node(value)
	if n == nil {
		return "", fmt.Errorf("hierarchy %s: unknown value %q", c.h.Attr, value)
	}
	for m := n; m != nil; m = m.Parent {
		if c.in[m] {
			return m.Value, nil
		}
	}
	return n.Value, nil
}

func (c *refCut) Specialize(value string) error {
	n := c.h.Node(value)
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", c.h.Attr, value)
	}
	if !c.in[n] {
		return fmt.Errorf("hierarchy %s: %q is not on the cut", c.h.Attr, value)
	}
	if n.IsLeaf() {
		return fmt.Errorf("hierarchy %s: cannot specialize leaf %q", c.h.Attr, value)
	}
	delete(c.in, n)
	for _, ch := range n.Children {
		c.in[ch] = true
	}
	return nil
}

func (c *refCut) Generalize(value string) error {
	n := c.h.Node(value)
	if n == nil {
		return fmt.Errorf("hierarchy %s: unknown value %q", c.h.Attr, value)
	}
	if !c.in[n] {
		return fmt.Errorf("hierarchy %s: %q is not on the cut", c.h.Attr, value)
	}
	p := n.Parent
	if p == nil {
		return fmt.Errorf("hierarchy %s: cannot generalize the root", c.h.Attr)
	}
	var sweep func(m *Node)
	sweep = func(m *Node) {
		if c.in[m] {
			delete(c.in, m)
			return
		}
		for _, ch := range m.Children {
			sweep(ch)
		}
	}
	sweep(p)
	c.in[p] = true
	return nil
}

func (c *refCut) Validate() error {
	var walk func(n *Node, covered int) error
	walk = func(n *Node, covered int) error {
		if c.in[n] {
			covered++
		}
		if n.IsLeaf() {
			if covered != 1 {
				return fmt.Errorf("hierarchy %s: leaf %q covered %d times by cut", c.h.Attr, n.Value, covered)
			}
			return nil
		}
		for _, ch := range n.Children {
			if err := walk(ch, covered); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(c.h.Root, 0)
}

func (c *refCut) NCP() float64 {
	total := c.h.Root.leafCount
	if total <= 1 {
		return 0
	}
	var sum int64
	for n := range c.in {
		sum += int64(n.leafCount-1) * int64(n.leafCount)
	}
	return float64(sum) / (float64(total-1) * float64(total))
}

// refTestHierarchy builds a hierarchy over n values: kind 0 is
// AutoCategorical, 1 AutoNumeric, and 2 a random tree (each node hangs
// under a random earlier one), which gives unbalanced shapes and
// single-child chains the auto builders never make.
func refTestHierarchy(t testing.TB, rng *rand.Rand, kind, n, fanout int) *Hierarchy {
	t.Helper()
	vals := make([]string, n)
	var h *Hierarchy
	var err error
	switch kind {
	case 0:
		for i := range vals {
			vals[i] = fmt.Sprintf("v%02d", i)
		}
		h, err = AutoCategorical("C", vals, fanout)
	case 1:
		for i := range vals {
			vals[i] = strconv.Itoa(rng.Intn(200))
		}
		h, err = AutoNumeric("N", vals, fanout)
	default:
		b := NewBuilder("T")
		for i := 1; i < n; i++ {
			b.Add(fmt.Sprintf("n%02d", rng.Intn(i)), fmt.Sprintf("n%02d", i))
		}
		if n == 1 {
			b.node("n00")
		}
		h, err = b.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkCutMatchesReference runs the same random Specialize/Generalize
// sequence on a Cut and a refCut, starting from the root cut or the leaf
// cut, and after every step compares the operation's error, Map and
// Contains for every node (and for an unknown value), the NCP bits,
// Values and Validate. Most steps pick an on-cut node; the rest pick any
// node or an unknown value, so the error paths are compared too.
func checkCutMatchesReference(t *testing.T, h *Hierarchy, rng *rand.Rand, steps int) {
	t.Helper()
	c, ref := NewCut(h), newRefCut(h)
	if rng.Intn(2) == 0 {
		c, ref = NewLeafCut(h), newRefLeafCut(h)
	}
	all := make([]string, 0, h.Size())
	for v := range h.nodes {
		all = append(all, v)
	}
	sort.Strings(all)
	compare := func(step string) {
		t.Helper()
		for _, v := range append(all, "no such value") {
			got, gotErr := c.Map(v)
			want, wantErr := ref.Map(v)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Map(%q) = %q, %v; reference %q, %v", step, v, got, gotErr, want, wantErr)
			}
			if c.Contains(v) != ref.Contains(v) {
				t.Fatalf("%s: Contains(%q) = %v; reference %v", step, v, c.Contains(v), ref.Contains(v))
			}
		}
		if got, want := c.NCP(), ref.NCP(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: NCP = %v; reference %v", step, got, want)
		}
		if got, want := c.Values(), ref.Values(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Values = %v; reference %v", step, got, want)
		}
		if got, want := c.Validate(), ref.Validate(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Validate = %v; reference %v", step, got, want)
		}
	}
	compare("start")
	for s := 0; s < steps; s++ {
		var v string
		switch on := ref.Values(); {
		case rng.Intn(8) == 0:
			v = "no such value"
		case rng.Intn(4) == 0:
			v = all[rng.Intn(len(all))]
		default:
			v = on[rng.Intn(len(on))]
		}
		op, got, want := "Specialize", error(nil), error(nil)
		if rng.Intn(2) == 0 {
			got, want = c.Specialize(v), ref.Specialize(v)
		} else {
			op, got, want = "Generalize", c.Generalize(v), ref.Generalize(v)
		}
		step := fmt.Sprintf("step %d %s(%q)", s, op, v)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v; reference %v", step, got, want)
		}
		compare(step)
	}
}

// TestCutMatchesReference pins Cut to the map-based reference on random
// operation sequences over categorical, numeric and random-tree
// hierarchies of several sizes and fanouts.
func TestCutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for kind := 0; kind < 3; kind++ {
		for _, n := range []int{1, 2, 3, 7, 16, 40} {
			for fanout := 2; fanout <= 4; fanout++ {
				h := refTestHierarchy(t, rng, kind, n, fanout)
				for trial := 0; trial < 3; trial++ {
					checkCutMatchesReference(t, h, rng, 60)
				}
			}
		}
	}
}

// FuzzCutMatchesReference is TestCutMatchesReference on arbitrary inputs:
// the first byte picks the hierarchy kind and fanout, the second the
// number of values (1..64), and the whole input seeds the operation
// sequence.
func FuzzCutMatchesReference(f *testing.F) {
	f.Add([]byte{0, 9, 1})
	f.Add([]byte{4, 30, 2})
	f.Add([]byte{8, 63, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		hier := refTestHierarchy(t, rng, int(data[0]%3), 1+int(data[1]%64), 2+int(data[0]/3%3))
		checkCutMatchesReference(t, hier, rng, 40)
	})
}
