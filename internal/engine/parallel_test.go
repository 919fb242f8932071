package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/rt"
)

// scalingBatch builds a CPU-bound batch of RT configurations over a
// fixture big enough that per-run compute dwarfs scheduling overhead.
func scalingBatch(t testing.TB, records int) (ds *dataset.Dataset, cfgs []Config) {
	t.Helper()
	d := gen.Census(gen.Config{Records: records, Items: 24, MaxBasket: 5, Seed: 33})
	hs, err := gen.Hierarchies(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 16; k += 2 {
		cfgs = append(cfgs, Config{
			Mode: RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
			K: k, M: 2, Delta: 0.5, Hierarchies: hs, ItemHierarchy: ih,
		})
	}
	return d, cfgs
}

// TestParallelSpeedupSmoke checks that the scheduler actually scales: the
// same batch at workers=4 must beat workers=1 by at least 1.5x. Skipped
// in -short runs (it is a timing test) and on machines without 4 CPUs,
// where the speedup physically cannot materialize.
func TestParallelSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke test, skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs >= 4 CPUs, have GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	}
	ds, cfgs := scalingBatch(t, 400)
	run := func(workers int) time.Duration {
		start := time.Now()
		for _, r := range RunAll(ds, cfgs, workers) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return time.Since(start)
	}
	run(1) // warm caches (hierarchy indexes, page cache) off the clock
	serial := run(1)
	parallel := run(4)
	ratio := float64(serial) / float64(parallel)
	t.Logf("workers=1: %v, workers=4: %v, speedup %.2fx", serial, parallel, ratio)
	if ratio < 1.5 {
		t.Fatalf("workers=4 speedup %.2fx < 1.5x (serial %v, parallel %v)", ratio, serial, parallel)
	}
}

// TestBatchSharedConcurrent drives one Stream batch wide enough that all
// workers race into the lazily built batch-shared interning — under
// -race this pins that the shared Indexed (and the algorithm state built
// over it) is safe for concurrent workers. Results must also match a
// serial run exactly.
func TestBatchSharedConcurrent(t *testing.T) {
	ds, cfgs := scalingBatch(t, 150)
	serial := RunAll(ds, cfgs, 1)
	got, err := NewScheduler(8, nil).RunAll(context.Background(), ds, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("cfg %d: %v", i, r.Err)
		}
		if serial[i].Err != nil {
			t.Fatalf("serial cfg %d: %v", i, serial[i].Err)
		}
		if r.Indicators != serial[i].Indicators {
			t.Fatalf("cfg %d: concurrent indicators %+v diverge from serial %+v",
				i, r.Indicators, serial[i].Indicators)
		}
		if r.Anonymized().Fingerprint() != serial[i].Anonymized().Fingerprint() {
			t.Fatalf("cfg %d: concurrent output diverges from serial", i)
		}
	}
}
