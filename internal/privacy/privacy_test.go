package privacy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
)

func mk(t testing.TB, rows [][2]string, baskets [][]string) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{{Name: "A"}, {Name: "B"}}, "T")
	for i, r := range rows {
		var items []string
		if i < len(baskets) {
			items = baskets[i]
		}
		if err := ds.AddRecord(dataset.Record{Values: []string{r[0], r[1]}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestPartition(t *testing.T) {
	ds := mk(t, [][2]string{{"x", "1"}, {"x", "1"}, {"y", "1"}}, nil)
	classes := Partition(ds, []int{0, 1})
	if len(classes) != 2 {
		t.Fatalf("classes = %d", len(classes))
	}
	if !reflect.DeepEqual(classes[0].Signature, []string{"x", "1"}) {
		t.Errorf("first signature = %v", classes[0].Signature)
	}
	if !reflect.DeepEqual(classes[0].Records, []int{0, 1}) {
		t.Errorf("first class records = %v", classes[0].Records)
	}
}

func TestPartitionSkipsSuppressed(t *testing.T) {
	ds := mk(t, [][2]string{{"x", "1"}, {"y", "2"}}, nil)
	generalize.SuppressRecord(ds, []int{0, 1}, 1)
	classes := Partition(ds, []int{0, 1})
	if len(classes) != 1 {
		t.Fatalf("classes = %d, want 1 (suppressed skipped)", len(classes))
	}
}

func TestIsKAnonymous(t *testing.T) {
	ds := mk(t, [][2]string{{"x", "1"}, {"x", "1"}, {"y", "1"}, {"y", "1"}}, nil)
	if !IsKAnonymous(ds, []int{0, 1}, 2) {
		t.Error("2-anonymous dataset rejected")
	}
	if IsKAnonymous(ds, []int{0, 1}, 3) {
		t.Error("non-3-anonymous dataset accepted")
	}
	if !IsKAnonymous(ds, []int{0, 1}, 1) || !IsKAnonymous(ds, []int{0, 1}, 0) {
		t.Error("trivial k rejected")
	}
	if MinClassSize(ds, []int{0, 1}) != 2 {
		t.Errorf("MinClassSize = %d", MinClassSize(ds, []int{0, 1}))
	}
	empty := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	if MinClassSize(empty, []int{0}) != 0 {
		t.Error("empty dataset MinClassSize != 0")
	}
}

func TestKMViolations(t *testing.T) {
	trs := [][]string{
		{"a", "b"},
		{"a", "b"},
		{"a", "c"},
	}
	// k=2, m=1: c appears once -> violation.
	vs := KMViolations(trs, 2, 1, 0)
	if len(vs) != 1 || vs[0].Itemset[0] != "c" || vs[0].Support != 1 {
		t.Errorf("m=1 violations = %v", vs)
	}
	// k=2, m=2: {a,c} support 1, {c} support 1.
	vs = KMViolations(trs, 2, 2, 0)
	if len(vs) != 2 {
		t.Errorf("m=2 violations = %v", vs)
	}
	// Size-1 violations come first.
	if len(vs[0].Itemset) != 1 {
		t.Errorf("violations not ordered by size: %v", vs)
	}
	// Limit caps output.
	vs = KMViolations(trs, 2, 2, 1)
	if len(vs) != 1 {
		t.Errorf("limit ignored: %v", vs)
	}
	if !IsKMAnonymous(trs, 2, 0) || !IsKMAnonymous(trs, 1, 3) {
		t.Error("trivial parameters rejected")
	}
	if IsKMAnonymous(trs, 2, 2) {
		t.Error("violating transactions accepted")
	}
	if !IsKMAnonymous([][]string{{"a"}, {"a"}}, 2, 2) {
		t.Error("2-anonymous singleton transactions rejected")
	}
	// A k beyond int32 must not wrap (math.MaxInt as int32 is -1).
	if IsKMAnonymous([][]string{{"a"}, {"a"}}, math.MaxInt, 1) {
		t.Error("huge k accepted two transactions")
	}
}

func TestForEachSubset(t *testing.T) {
	var got [][]string
	ForEachSubset([]string{"a", "b", "c"}, 2, func(s []string) {
		got = append(got, append([]string(nil), s...))
	})
	want := [][]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subsets = %v", got)
	}
	count := 0
	ForEachSubset([]string{"a"}, 2, func([]string) { count++ })
	if count != 0 {
		t.Error("oversize subset enumerated")
	}
	ForEachSubset([]string{"a", "b"}, 0, func([]string) { count++ })
	if count != 0 {
		t.Error("zero-size subset enumerated")
	}
}

// Exhaustive cross-check of subset enumeration counts against binomials.
func TestForEachSubsetCounts(t *testing.T) {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for n := 0; n <= 7; n++ {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf("i%d", i)
		}
		for k := 1; k <= n; k++ {
			count := 0
			seen := make(map[string]bool)
			ForEachSubset(items, k, func(s []string) {
				count++
				key := fmt.Sprint(s)
				if seen[key] {
					t.Fatalf("duplicate subset %v", s)
				}
				seen[key] = true
				if !sort.StringsAreSorted(s) {
					t.Fatalf("unsorted subset %v", s)
				}
			})
			if count != binom(n, k) {
				t.Fatalf("n=%d k=%d: %d subsets, want %d", n, k, count, binom(n, k))
			}
		}
	}
}

func TestTransactions(t *testing.T) {
	ds := mk(t, [][2]string{{"x", "1"}, {"y", "2"}, {"z", "3"}},
		[][]string{{"a"}, nil, {"b", "c"}})
	all := Transactions(ds, nil)
	if len(all) != 2 {
		t.Errorf("all transactions = %v", all)
	}
	some := Transactions(ds, []int{0, 1})
	if len(some) != 1 || some[0][0] != "a" {
		t.Errorf("indexed transactions = %v", some)
	}
}

func TestCheckRT(t *testing.T) {
	// Two classes of size 2; items identical within class -> (2,2^2) holds.
	ds := mk(t, [][2]string{{"x", "1"}, {"x", "1"}, {"y", "2"}, {"y", "2"}},
		[][]string{{"a", "b"}, {"a", "b"}, {"c"}, {"c"}})
	rep := CheckRT(ds, []int{0, 1}, 2, 2)
	if !rep.Holds() || rep.MinClass != 2 || rep.BadClasses != 0 {
		t.Errorf("report = %+v", rep)
	}
	// Break the transaction side in one class.
	ds.Records[1].Items = []string{"a"}
	rep = CheckRT(ds, []int{0, 1}, 2, 2)
	if rep.Holds() || rep.BadClasses != 1 || rep.FirstKMFail == nil {
		t.Errorf("report = %+v", rep)
	}
	if !rep.KAnonymous {
		t.Error("relational side wrongly failed")
	}
	// Break the relational side.
	ds2 := mk(t, [][2]string{{"x", "1"}, {"y", "1"}}, [][]string{nil, nil})
	rep = CheckRT(ds2, []int{0, 1}, 2, 2)
	if rep.KAnonymous || rep.Holds() {
		t.Errorf("report = %+v", rep)
	}
}

func TestCheckRTEmpty(t *testing.T) {
	ds := dataset.New([]dataset.Attribute{{Name: "A"}}, "")
	rep := CheckRT(ds, []int{0}, 2, 2)
	if !rep.KAnonymous || rep.MinClass != 0 {
		t.Errorf("empty report = %+v", rep)
	}
}

// Property: KMViolations agrees with a brute-force support check on random
// small transaction sets.
func TestKMViolationsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		trs := make([][]string, n)
		for i := range trs {
			var items []string
			for _, u := range universe {
				if rng.Intn(2) == 0 {
					items = append(items, u)
				}
			}
			trs[i] = items
		}
		k := 2 + rng.Intn(2)
		m := 1 + rng.Intn(2)
		got := len(KMViolations(trs, k, m, 0)) == 0
		// Brute force: every subset of universe with size<=m and support in (0,k).
		ok := true
		var check func(start int, cur []string)
		check = func(start int, cur []string) {
			if len(cur) > 0 && len(cur) <= m {
				sup := 0
				for _, tr := range trs {
					has := true
					set := make(map[string]bool)
					for _, it := range tr {
						set[it] = true
					}
					for _, c := range cur {
						if !set[c] {
							has = false
							break
						}
					}
					if has {
						sup++
					}
				}
				if sup > 0 && sup < k {
					ok = false
				}
			}
			if len(cur) >= m {
				return
			}
			for i := start; i < len(universe); i++ {
				check(i+1, append(cur, universe[i]))
			}
		}
		check(0, nil)
		if got != ok {
			t.Fatalf("trial %d: KMViolations=%v brute=%v (k=%d m=%d trs=%v)", trial, got, ok, k, m, trs)
		}
	}
}

// TestNumberClassesWideKeys forces the byte-string fallback with
// cardinalities whose product overflows a uint64 and requires the same
// classes, numbered alike, as the packed keys — and an order that sorts
// the classes by signature tuple.
func TestNumberClassesWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 500
	cols := make([][]uint32, 3)
	for i := range cols {
		cols[i] = make([]uint32, n)
		for r := range cols[i] {
			cols[i][r] = uint32(rng.Intn(4))
		}
	}
	// Column 1 reads through a table that merges two of its IDs.
	trans := [][]uint32{{0, 1, 2, 3}, {0, 0, 2, 3}, {0, 1, 2, 3}}
	var cc ClassCounter
	packed := slices.Clone(cc.ClassSizes(n, cols, trans, []int{4, 4, 4}))
	wide := []int{1 << 31, 1 << 31, 1 << 31}
	if got := cc.ClassSizes(n, cols, trans, wide); !reflect.DeepEqual(got, packed) {
		t.Fatalf("wide keys gave class sizes %v, packed %v", got, packed)
	}
	tuple := func(r int) [3]uint32 {
		return [3]uint32{trans[0][cols[0][r]], trans[1][cols[1][r]], trans[2][cols[2][r]]}
	}
	var reps [][3]uint32
	var index classIndex
	numberClasses(&index, n, cols, trans, wide, nil, func(r, c int) {
		if c == len(reps) {
			reps = append(reps, tuple(r))
		} else if reps[c] != tuple(r) {
			t.Fatalf("record %d joins class %d of %v with %v", r, c, reps[c], tuple(r))
		}
	})
	order := index.order()
	if len(order) != len(packed) {
		t.Fatalf("order lists %d classes, want %d", len(order), len(packed))
	}
	for i := 1; i < len(order); i++ {
		a, b := reps[order[i-1]], reps[order[i]]
		if fmt.Sprint(a) >= fmt.Sprint(b) {
			t.Fatalf("order puts %v before %v", a, b)
		}
	}
}

// TestNumberClassesKeyPaths requires the dense slot table, the packed-key
// map and the byte-string keys to number every record's class alike and
// to order the classes alike, by signature tuple. One classIndex serves
// every count, the paths interleaved, so a slot left set by one dense
// count shows in the next. The dense table serves radixes up to
// denseSlotsPerRecord*n and the map the ones above.
func TestNumberClassesKeyPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x classIndex
	for round := 0; round < 60; round++ {
		n := 4 + rng.Intn(77) // keeps the third card, n at the cap of 16, above the IDs
		cols := make([][]uint32, 3)
		for i := range cols {
			cols[i] = make([]uint32, n)
			span := 1 + rng.Intn(4)
			for r := range cols[i] {
				cols[i][r] = uint32(rng.Intn(span))
			}
		}
		tuple := func(r int) []uint32 { return []uint32{cols[0][r], cols[1][r], cols[2][r]} }
		var wantOf, wantOrder []int
		for p, cards := range [][]int{
			{4, 4, denseSlotsPerRecord * n / 16}, // dense, radix the cap
			{4, 4, denseSlotsPerRecord*n/16 + 1}, // packed map, above the cap
			{1 << 31, 1 << 31, 1 << 31},          // byte-string keys
			{4, 4, max(4, n-rng.Intn(n))},        // dense again
		} {
			of := make([]int, n)
			numberClasses(&x, n, cols, nil, cards, nil, func(r, c int) { of[r] = c })
			order := x.order()
			if p == 0 {
				wantOf, wantOrder = of, order
				continue
			}
			if !reflect.DeepEqual(of, wantOf) || !reflect.DeepEqual(order, wantOrder) {
				t.Fatalf("round %d, cards %v: classes %v, order %v; the dense table gave %v, %v", round, cards, of, order, wantOf, wantOrder)
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if same := slices.Equal(tuple(a), tuple(b)); same != (wantOf[a] == wantOf[b]) {
					t.Fatalf("round %d: records %d %v and %d %v in classes %d and %d", round, a, tuple(a), b, tuple(b), wantOf[a], wantOf[b])
				}
			}
		}
		for i := 1; i < len(wantOrder); i++ {
			a, b := slices.Index(wantOf, wantOrder[i-1]), slices.Index(wantOf, wantOrder[i])
			if slices.Compare(tuple(a), tuple(b)) >= 0 {
				t.Fatalf("round %d: order puts %v before %v", round, tuple(a), tuple(b))
			}
		}
	}
	// The cap itself: a radix of denseSlotsPerRecord*n takes the table,
	// one more the map.
	const n = 7
	col := [][]uint32{{0, 3, 5, 3, 0, 111, 5}}
	for _, c := range []struct {
		card  int
		dense bool
	}{{denseSlotsPerRecord * n, true}, {denseSlotsPerRecord*n + 1, false}} {
		var y classIndex
		numberClasses(&y, n, col, nil, []int{c.card}, nil, func(int, int) {})
		if dense := y.packed == nil; dense != c.dense || len(y.keys) != 4 {
			t.Errorf("radix %d: dense %v with %d classes, want dense %v with 4", c.card, dense, len(y.keys), c.dense)
		}
	}
}
