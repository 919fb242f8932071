package privacy

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"secreta/internal/dataset"
)

// fuzzDataset turns fuzz bytes into k in 1..8, m in 1..4 and at most 64
// records over a one-column QI. Each record takes three bytes: a 16-bit
// mask choosing its basket from items i0..i15 (zero gives an empty
// basket) and a byte choosing one of four QI values. The item names are
// prefixes of one another ("i1", "i10") and their name order is not
// their numeric order, so rank interning is exercised too.
func fuzzDataset(data []byte) (ds *dataset.Dataset, k, m int) {
	ds = dataset.New([]dataset.Attribute{{Name: "Q", Kind: dataset.Categorical}}, "Items")
	if len(data) < 2 {
		return ds, 2, 1
	}
	k, m = 1+int(data[0])%8, 1+int(data[1])%4
	data = data[2:]
	for r := 0; r+3 <= len(data) && r < 3*64; r += 3 {
		mask := uint16(data[r])<<8 | uint16(data[r+1])
		var items []string
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				items = append(items, "i"+strconv.Itoa(i))
			}
		}
		sort.Strings(items)
		if err := ds.AddRecord(dataset.Record{Values: []string{"q" + strconv.Itoa(int(data[r+2])%4)}, Items: items}); err != nil {
			panic(err)
		}
	}
	return ds, k, m
}

// referenceCheckRT is the brute-force (k,k^m) oracle: the seed partition
// and, per class, the seed violation scan over that class's baskets.
func referenceCheckRT(ds *dataset.Dataset, qis []int, k, m int) RTReport {
	rep := RTReport{KAnonymous: true}
	for i, c := range referencePartition(ds, qis) {
		if i == 0 || len(c.Records) < rep.MinClass {
			rep.MinClass = len(c.Records)
		}
		if len(c.Records) < k {
			rep.KAnonymous = false
		}
		if vs := referenceKMViolations(Transactions(ds, c.Records), k, m, 0); len(vs) > 0 {
			rep.BadClasses++
			if rep.FirstKMFail == nil {
				rep.FirstKMFail = &vs[0]
			}
		}
	}
	return rep
}

// FuzzKMChecksMatchReference pins every k^m check built on the shared
// support counter — KMViolations, CheckRT and KMCounter.Count — to the
// seed implementations preserved in reference_test.go.
func FuzzKMChecksMatchReference(f *testing.F) {
	f.Add([]byte{1, 1, 0, 3, 0, 0, 3, 1, 0, 5, 0})
	f.Add([]byte{4, 2, 0x80, 0x07, 0, 0x00, 0x06, 0, 0x40, 0x03, 1, 0, 0, 1, 0x04, 0x02, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, k, m := fuzzDataset(data)
		trs := Transactions(ds, nil)
		want := referenceKMViolations(trs, k, m, 0)
		for _, limit := range []int{0, 3} {
			got := KMViolations(trs, k, m, limit)
			if w := referenceKMViolations(trs, k, m, limit); !reflect.DeepEqual(got, w) {
				t.Fatalf("k=%d m=%d limit=%d: KMViolations = %v, want %v", k, m, limit, got, w)
			}
		}

		if got, w := CheckRT(ds, []int{0}, k, m), referenceCheckRT(ds, []int{0}, k, m); !reflect.DeepEqual(got, w) {
			t.Fatalf("k=%d m=%d: CheckRT = %+v (first %v), want %+v (first %v)",
				k, m, got, got.FirstKMFail, w, w.FirstKMFail)
		}

		items := make([][]string, len(ds.Records))
		for r := range ds.Records {
			items[r] = ds.Records[r].Items
		}
		view := InternTxView(items)
		counter := NewKMCounter(view)
		if got := counter.Count(k, m, 1, view.Txs); got != min(len(want), 1) {
			t.Fatalf("k=%d m=%d: KMCounter.Count limit 1 = %d, want %d", k, m, got, min(len(want), 1))
		}
		// The second call reuses the counter's storage from the first.
		half := len(view.Txs) / 2
		if got := counter.Count(k, m, 0, view.Txs[:half], view.Txs[half:]); got != len(want) {
			t.Fatalf("k=%d m=%d: KMCounter.Count = %d, want %d", k, m, got, len(want))
		}
	})
}
