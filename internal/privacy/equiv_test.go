package privacy

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"secreta/internal/gen"
	"secreta/internal/generalize"
)

// Equivalence pins: the interned hot paths must be observationally
// identical to the seed string implementations preserved in
// reference_test.go — same classes in the same order, same violations in
// the same order — across generated datasets, generalized variants and
// suppressed records.

func TestPartitionMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		ds := gen.Census(gen.Config{Records: 400, Items: 12, Seed: seed})
		qis, err := ds.QIIndices(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Suppress a few records so the skip path is exercised too.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			generalize.SuppressRecord(ds, qis, rng.Intn(ds.Len()))
		}
		for _, cols := range [][]int{qis, {0, 2}, {1}, {}} {
			got := Partition(ds, cols)
			want := referencePartition(ds, cols)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d qis %v: Partition diverged from reference (got %d classes, want %d)",
					seed, cols, len(got), len(want))
			}
		}
	}
}

func TestKMViolationsMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		for _, m := range []int{1, 2, 3} {
			ds := gen.Census(gen.Config{Records: 300, Items: 30, MaxBasket: 7, Seed: seed})
			trs := Transactions(ds, nil)
			for _, k := range []int{2, 5} {
				for _, limit := range []int{0, 3} {
					got := KMViolations(trs, k, m, limit)
					want := referenceKMViolations(trs, k, m, limit)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed=%d k=%d m=%d limit=%d: %d violations, want %d (or order diverged)",
							seed, k, m, limit, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestKMViolationsParallelDeterministic pins that the sharded scan returns
// the same violations as the serial one: the transaction count is pushed
// past the parallel threshold and GOMAXPROCS is raised so shards really
// run, then compared against the reference.
func TestKMViolationsParallelDeterministic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ds := gen.Census(gen.Config{Records: 3000, Items: 40, MaxBasket: 6, Seed: 3})
	trs := Transactions(ds, nil)
	if len(trs) < kmParallelMin {
		t.Fatalf("fixture too small to engage sharding: %d transactions", len(trs))
	}
	got := KMViolations(trs, 5, 2, 0)
	want := referenceKMViolations(trs, 5, 2, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel scan diverged: %d violations, want %d", len(got), len(want))
	}
}

// TestCountSupportsEveryWidth pins the deterministic-merge property at
// every shard width 1..8, not just the width kmWorkers picks on this
// machine: sharded counting plus merge must yield exactly the serial
// scan's violations at every size level.
func TestCountSupportsEveryWidth(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 1200, Items: 40, MaxBasket: 6, Seed: 11})
	trs := Transactions(ds, nil)
	vals, txs := internTransactions(trs)
	below := func(s int32) bool { return belowK(s, 5) }
	for size := 1; size <= 3; size++ {
		want := countSupports(make([]supportCounts, 1), txs, len(vals), size).selected(vals, below)
		for width := 2; width <= 8; width++ {
			if got := countSupports(make([]supportCounts, width), txs, len(vals), size).selected(vals, below); !reflect.DeepEqual(got, want) {
				t.Fatalf("size=%d width=%d: sharded scan diverged (%d violations, want %d, or order differs)",
					size, width, len(got), len(want))
			}
		}
	}
}

// TestKMWorkersGating pins the shard-count derivation: serial below the
// work thresholds, >= 2 shards once 2*kmParallelMin transactions exist,
// and never more than GOMAXPROCS.
func TestKMWorkersGating(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	tiny := make([][]uint32, 64)
	for i := range tiny {
		tiny[i] = []uint32{1, 2}
	}
	if w := kmWorkers(tiny); w != 1 {
		t.Fatalf("tiny input sharded: %d workers", w)
	}
	// 2*kmParallelMin sparse transactions: the transaction-count rule
	// guarantees at least two shards even when the occurrence count is low.
	sparse := make([][]uint32, 2*kmParallelMin)
	for i := range sparse {
		sparse[i] = []uint32{uint32(i % 7)}
	}
	if w := kmWorkers(sparse); w < 2 {
		t.Fatalf("2*kmParallelMin transactions not sharded: %d workers", w)
	}
	// Few but dense transactions: the occurrence rule engages shards where
	// the old transaction-count floor silently serialized.
	dense := make([][]uint32, 256)
	for i := range dense {
		tx := make([]uint32, 64)
		for j := range tx {
			tx[j] = uint32(j)
		}
		dense[i] = tx
	}
	if w := kmWorkers(dense); w < 2 {
		t.Fatalf("dense input not sharded: %d workers", w)
	}
	if w := kmWorkers(dense); w > 8 {
		t.Fatalf("worker count exceeds GOMAXPROCS: %d", w)
	}
}
