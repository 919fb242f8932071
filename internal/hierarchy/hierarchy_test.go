package hierarchy

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// ageHierarchy builds:
//
//	Any
//	├── [20-29]: 25 27
//	└── [30-49]: 31 47
func ageHierarchy(t testing.TB) *Hierarchy {
	t.Helper()
	h, err := NewBuilder("Age").
		Add("Any", "[20-29]").
		Add("Any", "[30-49]").
		Add("[20-29]", "25").
		Add("[20-29]", "27").
		Add("[30-49]", "31").
		Add("[30-49]", "47").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuilderBasics(t *testing.T) {
	h := ageHierarchy(t)
	if h.Height() != 2 {
		t.Errorf("Height = %d, want 2", h.Height())
	}
	if got := h.Leaves(); !reflect.DeepEqual(got, []string{"25", "27", "31", "47"}) {
		t.Errorf("Leaves = %v", got)
	}
	if h.Root.Value != "Any" || h.Root.LeafCount() != 4 {
		t.Errorf("root = %q leafCount %d", h.Root.Value, h.Root.LeafCount())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("A").Build(); err == nil {
		t.Error("empty builder accepted")
	}
	if _, err := NewBuilder("A").Add("p", "c").Add("q", "c").Build(); err == nil {
		t.Error("two parents accepted")
	}
	if _, err := NewBuilder("A").Add("p", "p").Build(); err == nil {
		t.Error("self edge accepted")
	}
	if _, err := NewBuilder("A").Add("p", "c").Add("x", "y").Build(); err == nil {
		t.Error("forest accepted")
	}
	if _, err := NewBuilder("A").Add("", "c").Build(); err == nil {
		t.Error("empty value accepted")
	}
}

func TestGeneralizeLevels(t *testing.T) {
	h := ageHierarchy(t)
	for _, tc := range []struct {
		v    string
		lvl  int
		want string
	}{
		{"25", 0, "25"},
		{"25", 1, "[20-29]"},
		{"25", 2, "Any"},
		{"25", 9, "Any"},
		{"[30-49]", 1, "Any"},
	} {
		got, err := h.GeneralizeLevels(tc.v, tc.lvl)
		if err != nil || got != tc.want {
			t.Errorf("GeneralizeLevels(%q,%d) = %q,%v want %q", tc.v, tc.lvl, got, err, tc.want)
		}
	}
	if _, err := h.GeneralizeLevels("nope", 1); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestLCA(t *testing.T) {
	h := ageHierarchy(t)
	for _, tc := range []struct{ a, b, want string }{
		{"25", "27", "[20-29]"},
		{"25", "31", "Any"},
		{"25", "25", "25"},
		{"25", "[20-29]", "[20-29]"},
		{"[20-29]", "[30-49]", "Any"},
	} {
		n, err := h.LCA(tc.a, tc.b)
		if err != nil || n.Value != tc.want {
			t.Errorf("LCA(%q,%q) = %v,%v want %q", tc.a, tc.b, n, err, tc.want)
		}
	}
	if _, err := h.LCA("25", "zz"); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestNCP(t *testing.T) {
	h := ageHierarchy(t)
	for _, tc := range []struct {
		v    string
		want float64
	}{{"25", 0}, {"[20-29]", 1.0 / 3}, {"Any", 1}} {
		got, err := h.NCP(tc.v)
		if err != nil || got != tc.want {
			t.Errorf("NCP(%q) = %v,%v want %v", tc.v, got, err, tc.want)
		}
	}
}

func TestCovers(t *testing.T) {
	h := ageHierarchy(t)
	if !h.Covers("Any", "25") || !h.Covers("[20-29]", "27") || !h.Covers("25", "25") {
		t.Error("Covers misses ancestors")
	}
	if h.Covers("25", "Any") || h.Covers("[20-29]", "31") {
		t.Error("Covers accepts non-ancestors")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	h := ageHierarchy(t)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("Age", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Leaves(), h.Leaves()) {
		t.Errorf("leaves mismatch: %v vs %v", back.Leaves(), h.Leaves())
	}
	if back.Height() != h.Height() || back.Size() != h.Size() {
		t.Errorf("shape mismatch")
	}
	n, err := back.LCA("25", "27")
	if err != nil || n.Value != "[20-29]" {
		t.Errorf("LCA after round-trip = %v,%v", n, err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"single col": "25\n",
		"two roots":  "a,r1\nb,r2\n",
	} {
		if _, err := ReadCSV("A", strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAutoNumeric(t *testing.T) {
	vals := []string{"5", "1", "3", "2", "4", "5", ""}
	h, err := AutoNumeric("N", vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.Leaves(); !reflect.DeepEqual(got, []string{"1", "2", "3", "4", "5"}) {
		t.Errorf("leaves = %v", got)
	}
	// Root must cover the whole numeric range.
	if !strings.Contains(h.Root.Value, "1") || !strings.Contains(h.Root.Value, "5") {
		t.Errorf("root label = %q", h.Root.Value)
	}
	if _, err := AutoNumeric("N", []string{"x"}, 2); err == nil {
		t.Error("non-numeric accepted")
	}
	if _, err := AutoNumeric("N", nil, 2); err == nil {
		t.Error("empty accepted")
	}
}

func TestAutoCategorical(t *testing.T) {
	vals := []string{"delta", "alpha", "gamma", "beta", "alpha"}
	h, err := AutoCategorical("C", vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.Leaves(); !reflect.DeepEqual(got, []string{"alpha", "beta", "delta", "gamma"}) {
		t.Errorf("leaves = %v", got)
	}
}

func TestAutoBalancedShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 31, 100} {
		for _, fanout := range []int{2, 3, 5} {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = fmt.Sprintf("v%03d", i)
			}
			h, err := AutoCategorical("C", vals, fanout)
			if err != nil {
				t.Fatalf("n=%d fanout=%d: %v", n, fanout, err)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("n=%d fanout=%d: %v", n, fanout, err)
			}
			if len(h.Leaves()) != n {
				t.Fatalf("n=%d fanout=%d: %d leaves", n, fanout, len(h.Leaves()))
			}
			if h.Root.LeafCount() != n {
				t.Fatalf("n=%d fanout=%d: root covers %d", n, fanout, h.Root.LeafCount())
			}
		}
	}
}

func TestCutLifecycle(t *testing.T) {
	h := ageHierarchy(t)
	c := NewCut(h)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Map("25"); got != "Any" {
		t.Errorf("root cut Map = %q", got)
	}
	if c.NCP() != 1 {
		t.Errorf("root cut NCP = %v", c.NCP())
	}
	if err := c.Specialize("Any"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Map("25"); got != "[20-29]" {
		t.Errorf("after specialize Map = %q", got)
	}
	if err := c.Specialize("[20-29]"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Map("25"); got != "25" {
		t.Errorf("leaf-level Map = %q", got)
	}
	if err := c.Specialize("25"); err == nil {
		t.Error("specializing a leaf accepted")
	}
	// Now generalize back up.
	if err := c.Generalize("25"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Map("27"); got != "[20-29]" {
		t.Errorf("after generalize Map = %q", got)
	}
	if err := c.Generalize("[20-29]"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Map("47"); got != "Any" {
		t.Errorf("after full generalize Map = %q", got)
	}
	if err := c.Generalize("Any"); err == nil {
		t.Error("generalizing the root accepted")
	}
}

func TestCutLeafCutAndClone(t *testing.T) {
	h := ageHierarchy(t)
	c := NewLeafCut(h)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NCP() != 0 {
		t.Errorf("leaf cut NCP = %v", c.NCP())
	}
	cp := c.Clone()
	if err := cp.Generalize("25"); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("25") {
		t.Error("Clone shares state with original")
	}
	if got := cp.Values(); len(got) != 3 {
		t.Errorf("clone cut values = %v", got)
	}
}

func TestCutMapAboveCut(t *testing.T) {
	h := ageHierarchy(t)
	c := NewLeafCut(h)
	// "[20-29]" is strictly above the leaf cut; Map returns it unchanged.
	if got, err := c.Map("[20-29]"); err != nil || got != "[20-29]" {
		t.Errorf("Map above cut = %q, %v", got, err)
	}
}

// Property: for random hierarchies, any sequence of valid specializations
// keeps the cut valid, and Map is consistent with Covers.
func TestCutSpecializeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%02d", i)
		}
		h, err := AutoCategorical("C", vals, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		c := NewCut(h)
		for steps := 0; steps < 50; steps++ {
			nodes := c.Nodes()
			var interior []*Node
			for _, nd := range nodes {
				if !nd.IsLeaf() {
					interior = append(interior, nd)
				}
			}
			if len(interior) == 0 {
				break
			}
			pick := interior[rng.Intn(len(interior))]
			if err := c.Specialize(pick.Value); err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		for _, leaf := range h.Leaves() {
			m, err := c.Map(leaf)
			if err != nil {
				t.Fatal(err)
			}
			if !h.Covers(m, leaf) {
				t.Fatalf("Map(%q)=%q does not cover", leaf, m)
			}
		}
	}
}

// Property: LCA is commutative, idempotent, and its result covers both
// arguments; Index.LCA on IDs, of leaves or of any two nodes, names the
// same node.
func TestLCAProperty(t *testing.T) {
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%02d", i)
	}
	h, err := AutoCategorical("C", vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	leaves := h.Leaves()
	for i := 0; i < 200; i++ {
		a := leaves[rng.Intn(len(leaves))]
		b := leaves[rng.Intn(len(leaves))]
		ab, err1 := h.LCA(a, b)
		ba, err2 := h.LCA(b, a)
		if err1 != nil || err2 != nil || ab != ba {
			t.Fatalf("LCA not commutative at (%q,%q)", a, b)
		}
		if !h.Covers(ab.Value, a) || !h.Covers(ab.Value, b) {
			t.Fatalf("LCA(%q,%q)=%q does not cover both", a, b, ab.Value)
		}
		ix := h.Index()
		ia, _ := ix.ID(a)
		ib, _ := ix.ID(b)
		if got := ix.Node(ix.LCA(ia, ib)); got != ab {
			t.Fatalf("Index.LCA(%q,%q)=%q, LCA %q", a, b, got.Value, ab.Value)
		}
		x, y := int32(rng.Intn(ix.Len())), int32(rng.Intn(ix.Len()))
		if got, want := ix.Node(ix.LCA(x, y)), LCANodes(ix.Node(x), ix.Node(y)); got != want {
			t.Fatalf("Index.LCA(%q,%q)=%q, LCANodes %q", ix.Value(x), ix.Value(y), got.Value, want.Value)
		}
		self, _ := h.LCA(a, a)
		if self.Value != a {
			t.Fatalf("LCA(%q,%q) != self", a, a)
		}
	}
}
