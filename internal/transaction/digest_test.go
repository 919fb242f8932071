package transaction

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/policy"
)

// transactionDigest is the SHA-256 of every transaction algorithm's
// output over the grid of TestTransactionOutputDigest, recorded while
// the algorithms still published string datasets. A change that alters
// any published record, Cut, Mapping, Suppressed list or generalization
// count — or an error — changes it.
const transactionDigest = "0ec6bb904ce5281d7c47c4fe269e66f5f63cc9e2b623b5912a6cf5e327b6505e"

// publishedRecords returns the records a run publishes, as strings.
func publishedRecords(ds *dataset.Dataset, res *Result) *dataset.Dataset {
	return dataset.Intern(ds).WithItems(res.Items, res.ItemDict).Materialize()
}

// writeTxOutput feeds one run's observable result into h.
func writeTxOutput(h hash.Hash, name string, ds *dataset.Dataset, res *Result, err error) {
	fmt.Fprintf(h, "%s\n", name)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	for _, rec := range publishedRecords(ds, res).Records {
		fmt.Fprintf(h, "%q %q\n", rec.Values, rec.Items)
	}
	if res.Cut != nil {
		fmt.Fprintf(h, "cut %q\n", res.Cut.Values())
	}
	keys := make([]string, 0, len(res.Mapping))
	for it := range res.Mapping {
		keys = append(keys, it)
	}
	sort.Strings(keys)
	for _, it := range keys {
		fmt.Fprintf(h, "map %q %q\n", it, res.Mapping[it])
	}
	fmt.Fprintf(h, "suppressed %q gens %d\n", res.Suppressed, res.Generalizations)
}

// TestTransactionOutputDigest requires every transaction algorithm to
// publish exactly what it published as a string dataset: Apriori, LRA
// and VPA over fanout-2 and fanout-4 item hierarchies, COAT and PCTA
// under frequent-itemset privacy with top-level and hierarchy-derived
// utility policies, and rho-uncertainty with two sensitive items, on
// generated census data at two sizes and two (k, m).
func TestTransactionOutputDigest(t *testing.T) {
	h := sha256.New()
	for _, size := range []struct {
		records int
		seed    int64
	}{{150, 1}, {600, 2}} {
		ds := gen.Census(gen.Config{Records: size.records, Items: 24, Seed: size.seed})
		for _, km := range [][2]int{{3, 1}, {6, 2}} {
			k, m := km[0], km[1]
			base := fmt.Sprintf("n%d/k%d/m%d", size.records, k, m)
			for _, fanout := range []int{2, 4} {
				ih, err := gen.ItemHierarchy(ds, fanout)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range []struct {
					name string
					run  func(*dataset.Dataset, Options) (*Result, error)
				}{{"Apriori", Apriori}, {"LRA", LRA}, {"VPA", VPA}} {
					res, err := a.run(ds, Options{K: k, M: m, ItemHierarchy: ih, Partitions: 3})
					writeTxOutput(h, fmt.Sprintf("%s/%s/f%d", a.name, base, fanout), ds, res, err)
				}
				util := []struct {
					name string
					u    []policy.UtilityConstraint
				}{{"top", policy.UtilityTop(ds)}, {"hier", policy.UtilityFromHierarchy(ih, 1)}}
				for _, u := range util {
					pol := &policy.Policy{Privacy: policy.PrivacyFrequent(ds, 1, m), Utility: u.u}
					for _, a := range []struct {
						name string
						run  func(*dataset.Dataset, Options) (*Result, error)
					}{{"COAT", COAT}, {"PCTA", PCTA}} {
						res, err := a.run(ds, Options{K: k, M: m, Policy: pol})
						writeTxOutput(h, fmt.Sprintf("%s/%s/f%d/%s", a.name, base, fanout, u.name), ds, res, err)
					}
				}
			}
			for _, rho := range []float64{0.2, 0.6} {
				res, err := RhoUncertainty(ds, Options{M: m, Rho: rho, Sensitive: []string{gen.ItemName(0), gen.ItemName(5)}})
				writeTxOutput(h, fmt.Sprintf("rho/%s/%v", base, rho), ds, res, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != transactionDigest {
		t.Errorf("transaction output digest %s, want %s", got, transactionDigest)
	}
}
