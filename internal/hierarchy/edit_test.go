package hierarchy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

func TestAddLeaf(t *testing.T) {
	h := ageHierarchy(t)
	if err := h.AddLeaf("[20-29]", "28"); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Leaves(), []string{"25", "27", "28", "31", "47"}) {
		t.Errorf("leaves = %v", h.Leaves())
	}
	if n := h.Node("[20-29]"); n.LeafCount() != 3 {
		t.Errorf("leaf count not refreshed: %d", n.LeafCount())
	}
	if err := h.AddLeaf("[20-29]", "28"); err == nil {
		t.Error("duplicate accepted")
	}
	if err := h.AddLeaf("nope", "99"); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := h.AddLeaf("Any", ""); err == nil {
		t.Error("empty value accepted")
	}
}

func TestRename(t *testing.T) {
	h := ageHierarchy(t)
	if err := h.Rename("[20-29]", "[20s]"); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Node("[20-29]") != nil || h.Node("[20s]") == nil {
		t.Error("rename not applied to index")
	}
	if got, _ := h.GeneralizeLevels("25", 1); got != "[20s]" {
		t.Errorf("generalize after rename = %q", got)
	}
	if err := h.Rename("nope", "x"); err == nil {
		t.Error("unknown value accepted")
	}
	if err := h.Rename("25", "27"); err == nil {
		t.Error("collision accepted")
	}
	if err := h.Rename("25", ""); err == nil {
		t.Error("empty accepted")
	}
}

func TestRemoveLeaf(t *testing.T) {
	h := ageHierarchy(t)
	if err := h.RemoveLeaf("25"); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Leaves(), []string{"27", "31", "47"}) {
		t.Errorf("leaves = %v", h.Leaves())
	}
	if h.Root.LeafCount() != 3 {
		t.Errorf("root leaf count = %d", h.Root.LeafCount())
	}
	if err := h.RemoveLeaf("[30-49]"); err == nil {
		t.Error("interior removal accepted")
	}
	if err := h.RemoveLeaf("nope"); err == nil {
		t.Error("unknown value accepted")
	}
	// Removing the last child makes the parent a leaf; removing on up to
	// the root must fail at the root.
	if err := h.RemoveLeaf("27"); err != nil {
		t.Fatal(err)
	}
	if !h.Node("[20-29]").IsLeaf() {
		t.Error("emptied interior node is not a leaf")
	}
	if err := h.RemoveLeaf("[20-29]"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveLeaf("31"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveLeaf("47"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveLeaf("[30-49]"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveLeaf("Any"); err == nil {
		t.Error("root removal accepted")
	}
}

func TestCollapseNode(t *testing.T) {
	h := ageHierarchy(t)
	if err := h.CollapseNode("[20-29]"); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// 25 and 27 now hang directly under the root.
	if h.Node("25").Parent != h.Root {
		t.Error("children not reattached")
	}
	if h.Height() != 2 { // [30-49] branch still has depth 2
		t.Errorf("height = %d", h.Height())
	}
	if err := h.CollapseNode("25"); err == nil {
		t.Error("leaf collapse accepted")
	}
	if err := h.CollapseNode("Any"); err == nil {
		t.Error("root collapse accepted")
	}
	if err := h.CollapseNode("zzz"); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestMoveSubtree(t *testing.T) {
	h := ageHierarchy(t)
	if err := h.MoveSubtree("25", "[30-49]"); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Node("25").Parent.Value != "[30-49]" {
		t.Error("move not applied")
	}
	if h.Node("[20-29]").LeafCount() != 1 || h.Node("[30-49]").LeafCount() != 3 {
		t.Error("leaf counts not refreshed")
	}
	lca, _ := h.LCA("25", "31")
	if lca.Value != "[30-49]" {
		t.Errorf("LCA after move = %q", lca.Value)
	}
	// No-op move.
	if err := h.MoveSubtree("25", "[30-49]"); err != nil {
		t.Errorf("no-op move failed: %v", err)
	}
	// Cycle.
	if err := h.MoveSubtree("[30-49]", "25"); err == nil {
		t.Error("cycle accepted")
	}
	if err := h.MoveSubtree("Any", "[30-49]"); err == nil {
		t.Error("root move accepted")
	}
	if err := h.MoveSubtree("zzz", "Any"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := h.MoveSubtree("25", "zzz"); err == nil {
		t.Error("unknown parent accepted")
	}
}

// TestEditsInvalidateDigest: every structural edit drops the memoized
// digest, which then equals the SHA-256 of a fresh WriteCSV.
func TestEditsInvalidateDigest(t *testing.T) {
	h := ageHierarchy(t)
	fresh := func() string {
		t.Helper()
		var b bytes.Buffer
		if err := h.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		return hex.EncodeToString(sum[:])
	}
	edits := []struct {
		name string
		edit func() error
	}{
		{"AddLeaf", func() error { return h.AddLeaf("[20-29]", "28") }},
		{"Rename", func() error { return h.Rename("[20-29]", "[20s]") }},
		{"MoveSubtree", func() error { return h.MoveSubtree("31", "[20s]") }},
		{"RemoveLeaf", func() error { return h.RemoveLeaf("47") }},
		{"CollapseNode", func() error { return h.CollapseNode("[20s]") }},
	}
	prev := h.Digest()
	if prev != fresh() {
		t.Fatal("digest differs from the SHA-256 of WriteCSV")
	}
	for _, e := range edits {
		if err := e.edit(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got := h.Digest()
		if got == prev {
			t.Fatalf("%s left the digest stale", e.name)
		}
		if want := fresh(); got != want {
			t.Fatalf("%s: digest %s, fresh WriteCSV hashes to %s", e.name, got, want)
		}
		prev = got
	}
}
