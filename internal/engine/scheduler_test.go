package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/rt"
)

// grid builds a mixed relational/transactional/RT configuration grid over
// the fixture — the workload for determinism and equivalence checks.
func grid(t testing.TB) (*dataset.Dataset, []Config) {
	t.Helper()
	ds, hs, ih, w := fixture(t)
	var cfgs []Config
	for _, k := range []int{3, 5} {
		cfgs = append(cfgs,
			Config{Mode: Relational, Algorithm: "cluster", K: k, Hierarchies: hs, Workload: w},
			Config{Mode: Relational, Algorithm: "incognito", K: k, Hierarchies: hs},
			Config{Mode: Transactional, Algorithm: "apriori", K: k, M: 2, ItemHierarchy: ih},
			Config{Mode: RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
				K: k, M: 2, Delta: 0.3, Hierarchies: hs, ItemHierarchy: ih, Workload: w},
		)
	}
	return ds, cfgs
}

func sameDataset(a, b *dataset.Dataset) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Fingerprint() == b.Fingerprint()
}

// TestSchedulerDeterminism pins the equivalence contract: serial execution,
// wide parallel execution, and the legacy RunAll facade all produce
// identical indicators and anonymized outputs for every configuration.
func TestSchedulerDeterminism(t *testing.T) {
	ds, cfgs := grid(t)
	serial, err := NewScheduler(1, nil).RunAll(context.Background(), ds, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewScheduler(8, nil).RunAll(context.Background(), ds, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	legacy := RunAll(ds, cfgs, 4)
	for i := range cfgs {
		label := cfgs[i].DisplayLabel()
		if serial[i].Err != nil {
			t.Fatalf("%s: %v", label, serial[i].Err)
		}
		for name, got := range map[string]*Result{"workers=8": parallel[i], "RunAll": legacy[i]} {
			if got.Err != nil {
				t.Fatalf("%s (%s): %v", label, name, got.Err)
			}
			if !reflect.DeepEqual(serial[i].Indicators, got.Indicators) {
				t.Errorf("%s (%s): indicators diverge from serial run:\n  serial: %+v\n  other:  %+v",
					label, name, serial[i].Indicators, got.Indicators)
			}
			if !sameDataset(serial[i].Anonymized(), got.Anonymized()) {
				t.Errorf("%s (%s): anonymized output diverges from serial run", label, name)
			}
		}
	}
}

func TestSchedulerStreamCoversAllIndices(t *testing.T) {
	ds, cfgs := grid(t)
	seen := make(map[int]bool)
	for item := range NewScheduler(4, nil).Stream(context.Background(), ds, "", cfgs) {
		if seen[item.Index] {
			t.Fatalf("index %d emitted twice", item.Index)
		}
		seen[item.Index] = true
		if item.Result == nil {
			t.Fatalf("index %d: nil result", item.Index)
		}
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("emitted %d items, want %d", len(seen), len(cfgs))
	}
}

// TestSchedulerCancellation checks that a cancelled context stops the
// stream promptly: the channel closes without emitting the full batch and
// without waiting for the queue to drain.
func TestSchedulerCancellation(t *testing.T) {
	ds, hs, ih, _ := fixture(t)
	base := Config{Mode: RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: 5, M: 2, Delta: 0.3, Hierarchies: hs, ItemHierarchy: ih}
	cfgs := make([]Config, 64)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].K = 2 + i%7 // vary so no dedup anywhere can collapse the batch
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := NewScheduler(2, nil).Stream(ctx, ds, "", cfgs)
	n := 0
	for range stream {
		n++
		if n == 3 {
			cancel()
			break
		}
	}
	// After cancellation the channel must close promptly even though most
	// of the queue never ran.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-stream:
			if !ok {
				if n >= len(cfgs) {
					t.Fatalf("cancellation did not stop the batch: %d results", n)
				}
				return
			}
			n++
		case <-deadline:
			t.Fatal("stream did not close within 5s of cancellation")
		}
	}
}

func TestSchedulerRunAllReportsContextError(t *testing.T) {
	ds, cfgs := grid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewScheduler(2, nil).RunAll(ctx, ds, cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSchedulerCacheHit checks the memoization contract: a second identical
// batch is served entirely from the cache (asserted via the hit counter)
// and returns the same indicators.
func TestSchedulerCacheHit(t *testing.T) {
	ds, cfgs := grid(t)
	cache := NewCache()
	sched := NewScheduler(4, cache)
	first, err := sched.RunAll(context.Background(), ds, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != uint64(len(cfgs)) || s.Entries != len(cfgs) {
		t.Fatalf("after first run: stats = %+v", s)
	}
	hits := 0
	for item := range sched.Stream(context.Background(), ds, "", cfgs) {
		if item.CacheHit {
			hits++
		}
		if !reflect.DeepEqual(item.Result.Indicators, first[item.Index].Indicators) {
			t.Errorf("config %d: cached indicators diverge", item.Index)
		}
	}
	if hits != len(cfgs) {
		t.Fatalf("second run: %d cache hits, want %d", hits, len(cfgs))
	}
	if s := cache.Stats(); s.Hits != uint64(len(cfgs)) {
		t.Fatalf("after second run: stats = %+v", s)
	}
}

// TestSchedulerCacheSingleFlight submits the same configuration many times
// concurrently: the computation must run exactly once (one miss), with
// every other worker waiting on the in-flight leader instead of
// recomputing.
func TestSchedulerCacheSingleFlight(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{Mode: Relational, Algorithm: "cluster", K: 5, Hierarchies: hs}
	}
	cache := NewCache()
	results, err := NewScheduler(8, cache).RunAll(context.Background(), ds, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("identical concurrent configs computed %d times (stats %+v), want 1", s.Misses, s)
	}
	if s.Hits != uint64(len(cfgs))-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, len(cfgs)-1)
	}
}

// TestSchedulerCacheHitCarriesCallersConfig guards against label
// misattribution: a cache hit must answer with the requesting config, not
// the one that first populated the entry.
func TestSchedulerCacheHitCarriesCallersConfig(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	cache := NewCache()
	sched := NewScheduler(1, cache)
	cfg := Config{Label: "first", Mode: Relational, Algorithm: "cluster", K: 5, Hierarchies: hs}
	if _, err := sched.RunAll(context.Background(), ds, []Config{cfg}); err != nil {
		t.Fatal(err)
	}
	cfg.Label = "second"
	var item Item
	for it := range sched.Stream(context.Background(), ds, "", []Config{cfg}) {
		item = it
	}
	if !item.CacheHit {
		t.Fatal("second identical run was not a cache hit")
	}
	if got := item.Result.Config.Label; got != "second" {
		t.Fatalf("cache hit reported label %q, want the caller's %q", got, "second")
	}
}

// TestSchedulerCacheKeysDistinguishInputs guards the key derivation: a
// changed parameter or a changed dataset must miss.
func TestSchedulerCacheKeysDistinguishInputs(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	cache := NewCache()
	sched := NewScheduler(1, cache)
	cfg := Config{Mode: Relational, Algorithm: "cluster", K: 5, Hierarchies: hs}
	run := func(d *dataset.Dataset, c Config) {
		t.Helper()
		if _, err := sched.RunAll(context.Background(), d, []Config{c}); err != nil {
			t.Fatal(err)
		}
	}
	run(ds, cfg)
	cfg2 := cfg
	cfg2.K = 6
	run(ds, cfg2)
	ds2 := ds.Clone()
	ds2.Records = ds2.Records[:ds2.Len()-1]
	run(ds2, cfg)
	if s := cache.Stats(); s.Hits != 0 || s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("distinct inputs collided: stats = %+v", s)
	}
}

// TestWorkersDefault pins the pool-size derivation: an explicit count
// wins, the default is min(configurations, GOMAXPROCS), and the result
// never drops below one. The old default capped at a hardcoded 8, which
// both oversubscribed small machines and starved larger ones.
func TestWorkersDefault(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	s := NewScheduler(0, nil)
	if got := s.Workers(2); got != 2 {
		t.Fatalf("Workers(2) = %d, want 2 (one per config)", got)
	}
	if got := s.Workers(16); got != 4 {
		t.Fatalf("Workers(16) = %d, want GOMAXPROCS=4", got)
	}
	if got := s.Workers(0); got != 1 {
		t.Fatalf("Workers(0) = %d, want floor of 1", got)
	}
	if got := NewScheduler(3, nil).Workers(100); got != 3 {
		t.Fatalf("explicit Workers(100) = %d, want configured 3", got)
	}
}
