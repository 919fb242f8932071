package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
)

// refTransactionGCP is TransactionGCP on strings: a published item covers
// an original one when it equals it or Hierarchy.Covers says it is an
// ancestor, priced with Hierarchy.NCP.
func refTransactionGCP(orig, anon *dataset.Dataset, itemH *hierarchy.Hierarchy) (float64, error) {
	if len(orig.Records) != len(anon.Records) {
		return 0, fmt.Errorf("metrics: datasets not aligned (%d vs %d records)", len(orig.Records), len(anon.Records))
	}
	occurrences := 0
	loss := 0.0
	for r := range orig.Records {
		anonItems := anon.Records[r].Items
		for _, it := range orig.Records[r].Items {
			occurrences++
			covered := ""
			for _, g := range anonItems {
				if g == it || itemH.Covers(g, it) {
					covered = g
					break
				}
			}
			if covered == "" {
				loss++
				continue
			}
			ncp, err := itemH.NCP(covered)
			if err != nil {
				return 0, err
			}
			loss += ncp
		}
	}
	if occurrences == 0 {
		return 0, nil
	}
	return loss / float64(occurrences), nil
}

// transChainHierarchy has unary chains, where a node and its only child
// cover the same leaves: root → warm → red → {crimson → scarlet},
// root → cool → {blue, teal → aqua}.
func transChainHierarchy(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.NewBuilder("T").
		Add("root", "warm").Add("warm", "red").Add("red", "crimson").Add("crimson", "scarlet").
		Add("root", "cool").Add("cool", "blue").Add("cool", "teal").Add("teal", "aqua").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestTransactionGCPMatchesStringOracle compares the node-ID TransactionGCP
// bit for bit with refTransactionGCP on auto-built hierarchies and on the
// chain hierarchy. Original and published baskets draw from every node
// (interior values included), strings outside the hierarchy and the empty
// string, so coverage, suppression and the unknown-item error all occur.
func TestTransactionGCPMatchesStringOracle(t *testing.T) {
	hierarchies := []*hierarchy.Hierarchy{transChainHierarchy(t)}
	for fanout := 2; fanout <= 4; fanout++ {
		vals := make([]string, 3+4*fanout)
		for i := range vals {
			vals[i] = fmt.Sprintf("i%02d", i)
		}
		h, err := hierarchy.AutoCategorical("T", vals, fanout)
		if err != nil {
			t.Fatal(err)
		}
		hierarchies = append(hierarchies, h)
	}
	errorsSeen := 0
	for hi, h := range hierarchies {
		pool := append(h.Root.Leaves(), "zz-unknown", "")
		for id := 0; id < h.Index().Len(); id++ {
			if n := h.Index().Node(int32(id)); !n.IsLeaf() {
				pool = append(pool, n.Value)
			}
		}
		rng := rand.New(rand.NewSource(int64(hi)))
		for trial := 0; trial < 200; trial++ {
			basket := func(p float64) []string {
				var items []string
				for _, v := range pool {
					if rng.Float64() < p {
						items = append(items, v)
					}
				}
				rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
				return items
			}
			n := rng.Intn(12)
			orig := &dataset.Dataset{TransName: "T", Records: make([]dataset.Record, n)}
			anon := &dataset.Dataset{TransName: "T", Records: make([]dataset.Record, n)}
			for r := 0; r < n; r++ {
				orig.Records[r].Items = basket(0.2)
				anon.Records[r].Items = basket(0.1)
			}
			want, wantErr := refTransactionGCP(orig, anon, h)
			got, err := TransactionGCP(orig, dataset.Intern(anon), h)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hierarchy %d trial %d: TransactionGCP = %v, %v; string oracle %v, %v", hi, trial, got, err, want, wantErr)
			}
			if err != nil {
				errorsSeen++
			}
		}
	}
	if errorsSeen == 0 {
		t.Fatal("no trial priced an unknown item: the error path went untested")
	}
}
