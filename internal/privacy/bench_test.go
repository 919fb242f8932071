package privacy

import (
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
)

// BenchmarkPartition measures the hot Partition workload: grouping a
// generalized candidate dataset, the scan IsKAnonymous runs at every
// lattice node / refinement step. The fixture is a mid-lattice
// generalization, so signatures repeat the way they do inside the
// relational algorithms' loops.
func BenchmarkPartition(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 5000, Items: 0, Seed: 1})
	qis, err := ds.QIIndices(nil)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	levels := make([]int, len(qis))
	for i, q := range qis {
		if h := hs[ds.Attrs[q].Name]; h.Height() > 1 {
			levels[i] = h.Height() - 1
		}
	}
	cand, err := generalize.FullDomain(ds, hs, qis, levels)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Partition(cand, qis)
	}
}

func BenchmarkKMViolationsM2(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 40, Seed: 1})
	trs := Transactions(ds, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KMViolations(trs, 5, 2, 0)
	}
}

// BenchmarkKMViolationsLarge is the m=2 scan at a size kmWorkers shards
// on a multi-core machine (BenchmarkKMViolationsM2 runs serially), so
// losing the sharded path shows up as a regression.
func BenchmarkKMViolationsLarge(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 20000, Items: 40, Seed: 1})
	trs := Transactions(ds, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KMViolations(trs, 5, 2, 0)
	}
}

func BenchmarkCheckRT(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 30, Seed: 2})
	qis, err := ds.QIIndices(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CheckRT(ds, qis, 5, 2)
	}
}

// checkRTPerClassIntern is the pre-fix CheckRT verification loop — a
// fresh interner per equivalence class — kept as the before/after
// reference for the allocation assertion below.
func checkRTPerClassIntern(ds *dataset.Dataset, qis []int, k, m int) RTReport {
	rep := RTReport{KAnonymous: true, MinClass: 0}
	classes := Partition(ds, qis)
	if len(classes) == 0 {
		return rep
	}
	rep.MinClass = len(ds.Records)
	for _, c := range classes {
		if len(c.Records) < rep.MinClass {
			rep.MinClass = len(c.Records)
		}
		if len(c.Records) < k {
			rep.KAnonymous = false
		}
		if ds.HasTransaction() {
			vs := KMViolations(Transactions(ds, c.Records), k, m, 1)
			if len(vs) > 0 {
				rep.BadClasses++
				if rep.FirstKMFail == nil {
					v := vs[0]
					rep.FirstKMFail = &v
				}
			}
		}
	}
	return rep
}

// TestCheckRTSharedInternerAllocs pins the ROADMAP-noted alloc
// regression fix: verifying (k,k^m)-anonymity with one dataset-wide item
// interner and a reused per-class scratch must allocate a small fraction
// of what per-class re-interning costs (measured on this fixture: ~34.6k
// allocs/run before, ~6.2k after — mostly Partition and the item
// interning), while reporting the identical verdict.
func TestCheckRTSharedInternerAllocs(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 30, Seed: 2})
	qis, err := ds.QIIndices(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := checkRTPerClassIntern(ds, qis, 5, 2)
	got := CheckRT(ds, qis, 5, 2)
	if got.KAnonymous != want.KAnonymous || got.MinClass != want.MinClass || got.BadClasses != want.BadClasses {
		t.Fatalf("shared-interner CheckRT diverges: got %+v, want %+v", got, want)
	}
	if (got.FirstKMFail == nil) != (want.FirstKMFail == nil) {
		t.Fatalf("FirstKMFail presence diverges: got %v, want %v", got.FirstKMFail, want.FirstKMFail)
	}
	if got.FirstKMFail != nil && got.FirstKMFail.String() != want.FirstKMFail.String() {
		t.Fatalf("FirstKMFail diverges: got %v, want %v", got.FirstKMFail, want.FirstKMFail)
	}

	before := testing.AllocsPerRun(3, func() { _ = checkRTPerClassIntern(ds, qis, 5, 2) })
	after := testing.AllocsPerRun(3, func() { _ = CheckRT(ds, qis, 5, 2) })
	t.Logf("CheckRT allocs/run: per-class intern %.0f, shared interner %.0f", before, after)
	if after*2 >= before {
		t.Fatalf("shared-interner CheckRT allocates %.0f/run, not meaningfully below the per-class %.0f/run", after, before)
	}
}
