package engine

import (
	"context"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/rt"
)

// collect copies interned records into a string dataset by scanning
// them, independently of Materialize.
func collect(src *dataset.Indexed) *dataset.Dataset {
	ds := dataset.New(src.Attrs, src.TransName)
	src.ScanRecords(func(_ int, rec dataset.Record) bool {
		ds.Records = append(ds.Records, rec.Clone())
		return true
	})
	return ds
}

// TestCacheKeepsOneCopyOfRecords pins what a cached result holds: the
// leader, its single-flight waiters and later hits all share one interned
// record source: the columns the relational run published.
func TestCacheKeepsOneCopyOfRecords(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	sched := NewScheduler(1, NewCacheSized(8, 0))
	cfg := Config{Mode: Relational, Algorithm: "cluster", K: 4, Hierarchies: hs}
	first, err := sched.RunAll(context.Background(), NewInput(ds), []Config{cfg})
	if err != nil || first[0].Err != nil {
		t.Fatal(err, first[0].Err)
	}
	ix := first[0].Records
	if ix == nil {
		t.Fatal("leader's result carries no records")
	}
	if collect(ix).Fingerprint() != first[0].Anonymized().Fingerprint() {
		t.Fatal("interned records differ from the anonymized dataset")
	}
	var hit *Result
	for item := range sched.Stream(context.Background(), NewInput(ds), "", []Config{cfg}) {
		if !item.CacheHit {
			t.Fatal("re-run missed the cache")
		}
		hit = item.Result
	}
	if hit.Records != first[0].Records {
		t.Error("cache hit does not share the leader's interned records")
	}
}

// TestBatchLeavesSharedInterningUnchanged runs every relational
// algorithm, alone and under an RT combination, over one batch's shared
// interning — which relational runs publish their columns over — and
// requires the interning to decode to the same dataset afterwards. Each
// result's cache cost must be the string-form estimate of its
// materialized records.
func TestBatchLeavesSharedInterningUnchanged(t *testing.T) {
	ds, hs, ih, _ := fixture(t)
	in := NewInput(ds)
	before := in.Indexed().Materialize().Fingerprint()
	for _, algo := range rt.RelationalAlgos {
		for _, cfg := range []Config{
			{Mode: Relational, Algorithm: algo, K: 4, Hierarchies: hs},
			{Mode: RT, RelAlgo: algo, TransAlgo: "apriori", K: 4, M: 2, Delta: 0.5, Hierarchies: hs, ItemHierarchy: ih},
		} {
			r := runInput(context.Background(), in, cfg)
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if got, want := resultCost(r), 512+r.Anonymized().ApproxBytes(); got != want {
				t.Errorf("%s: cache cost %d, materialized estimate %d", cfg.DisplayLabel(), got, want)
			}
		}
	}
	if in.Indexed().Materialize().Fingerprint() != before {
		t.Fatal("the batch's runs wrote to its shared interning")
	}
}

// TestCacheByteCapUnderSustainedLoad pushes a stream of distinct
// configurations through one shared cache and checks the invariant the old
// unbounded cache violated: resident bytes never exceed the configured cap,
// no matter how much novel work flows through a long-lived scheduler.
func TestCacheByteCapUnderSustainedLoad(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	// Size the cap to hold only a few results, so sustained load must evict.
	res := Run(ds, Config{Mode: Relational, Algorithm: "cluster", K: 2, Hierarchies: hs})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	cap3 := 3 * resultCost(res)
	cache := NewCacheSized(0, cap3)
	sched := NewScheduler(4, cache)

	var cfgs []Config
	for k := 2; k <= 13; k++ {
		cfgs = append(cfgs, Config{Mode: Relational, Algorithm: "cluster", K: k, Hierarchies: hs})
	}
	for round := 0; round < 3; round++ {
		for item := range sched.Stream(context.Background(), NewInput(ds), "", cfgs) {
			if item.Result.Err != nil {
				t.Fatalf("k=%d: %v", item.Result.Config.K, item.Result.Err)
			}
			if s := cache.Stats(); s.Bytes > s.MaxBytes {
				t.Fatalf("cache exceeded its byte cap: %d > %d", s.Bytes, s.MaxBytes)
			}
		}
	}
	s := cache.Stats()
	if s.Evictions == 0 {
		t.Error("sustained distinct load never evicted; the cap is not biting")
	}
	if s.Entries >= len(cfgs) {
		t.Errorf("cache holds %d entries for a cap of ~3 results", s.Entries)
	}
	// A cyclic scan over 12 distinct configs through a ~3-result cache is
	// nearly pure thrash (the hit path is covered by
	// TestCacheHitStillServedAfterEvictions). "Nearly": with 4 workers a
	// round's last few inserts can still be resident when the next round
	// looks their keys up, so the occasional hit is legitimate — but every
	// run must be accounted for, and the overwhelming majority must be
	// real computations.
	runs := uint64(3 * len(cfgs))
	if s.Hits+s.Misses != runs {
		t.Errorf("hits %d + misses %d != %d runs", s.Hits, s.Misses, runs)
	}
	if s.Misses < runs-uint64(len(cfgs)) {
		t.Errorf("misses = %d of %d runs; a thrashing cache should compute almost every time", s.Misses, runs)
	}
}

// TestFlightHandsResultToWaiters pins the dedup guarantee under a hostile
// byte cap: even when the computed result is too large for the cache to
// retain, concurrent duplicates must receive the leader's result instead
// of recomputing serially.
func TestFlightHandsResultToWaiters(t *testing.T) {
	c := NewCacheSized(0, 1) // byte cap of 1: every real result is rejected
	leader, _ := c.claim("k")
	if !leader {
		t.Fatal("first claim should lead")
	}
	if again, _ := c.claim("k"); again {
		t.Fatal("second claim should wait, not lead")
	}
	_, fl := c.claim("k")
	r := &Result{Config: Config{Label: "x"}}
	c.put("k", r) // rejected by the cap
	c.release("k", r)
	<-fl.done
	if fl.result != r {
		t.Fatal("waiter did not receive the leader's result")
	}
	if _, ok := c.lookup("k", Config{}); ok {
		t.Fatal("oversized result unexpectedly resident")
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

// TestCacheHitStillServedAfterEvictions verifies the LRU keeps the most
// recently used result live: re-running the same configuration back to
// back is a cache hit even with a tiny cap.
func TestCacheHitStillServedAfterEvictions(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	cache := NewCacheSized(2, 0)
	sched := NewScheduler(1, cache)
	cfg := Config{Mode: Relational, Algorithm: "cluster", K: 4, Hierarchies: hs}

	first, err := sched.RunAll(context.Background(), NewInput(ds), []Config{cfg})
	if err != nil || first[0].Err != nil {
		t.Fatal(err, first[0].Err)
	}
	hit := false
	for item := range sched.Stream(context.Background(), NewInput(ds), "", []Config{cfg}) {
		hit = item.CacheHit
	}
	if !hit {
		t.Error("immediate re-run was not served from the cache")
	}
}
