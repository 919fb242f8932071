package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"secreta/internal/faultfs"
	"secreta/internal/obs"
	"secreta/internal/policy"
	"secreta/internal/registry"
)

// Scheduler is the engine's single concurrency path: a bounded worker pool
// that streams results over a channel as they complete, honors context
// cancellation, and serves repeated (dataset, configuration) pairs from a
// result cache. RunAll, the experiment module and secreta-serve all drive
// their work through one of these.
type Scheduler struct {
	workers int
	cache   *Cache
}

// NewScheduler builds a scheduler. workers <= 0 picks one worker per
// configuration at dispatch time, capped at the number of CPUs the
// runtime may use (GOMAXPROCS). cache may be nil to disable result
// caching.
func NewScheduler(workers int, cache *Cache) *Scheduler {
	return &Scheduler{workers: workers, cache: cache}
}

// Workers resolves the effective pool size for n queued configurations:
// the configured count, or min(n, GOMAXPROCS) by default. The old default
// was hardcoded at 8, which both oversubscribed small boxes and capped
// big ones — the anonymization workers are CPU-bound, so the pool should
// track the CPUs actually available, not a constant.
func (s *Scheduler) Workers(n int) int {
	w := s.workers
	if w <= 0 {
		w = n
		if p := runtime.GOMAXPROCS(0); w > p {
			w = p
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Cache returns the scheduler's result cache (nil when caching is off).
func (s *Scheduler) Cache() *Cache { return s.cache }

// Item is one streamed completion: the input position it answers, the
// result, and whether it was served from the cache.
type Item struct {
	Index    int
	Result   *Result
	CacheHit bool
}

// Stream executes the configurations over the input's dataset and emits an Item per
// configuration as it completes, in completion order. The returned channel
// is closed when all work is done or the context is cancelled; after
// cancellation no further jobs are started and unfinished configurations
// are never emitted. Failures stay per-item in Result.Err.
//
// Every configuration runs over in, sharing its interning: a caller that
// runs several batches over one dataset passes the same Input to each.
//
// dsKey is the dataset's Fingerprint() when the caller already holds it (a
// registry dataset_ref is one); the result cache keys on it, so it must be
// the fingerprint of the dataset as it is now. Empty makes Stream
// fingerprint the dataset itself when the cache needs a key.
//
// Contract: the caller must either drain the channel or cancel ctx —
// abandoning it mid-stream with a live context strands the worker
// goroutines on their sends for the life of the process.
func (s *Scheduler) Stream(ctx context.Context, in *Input, dsKey string, cfgs []Config) <-chan Item {
	out := make(chan Item)
	workers := s.Workers(len(cfgs))
	var memo *inputHasher
	if s.cache != nil {
		if dsKey == "" {
			dsKey = in.Dataset().Fingerprint()
		}
		memo = newInputHasher()
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				item := s.runOne(ctx, in, cfgs[i], dsKey, memo, i)
				// Prefer delivery over the cancellation signal: when the
				// consumer is waiting, a completed result must reach it
				// even if ctx was cancelled meanwhile — a bare two-way
				// select picks randomly when both cases are ready and
				// would discard finished work half the time.
				select {
				case out <- item:
					continue
				default:
				}
				select {
				case out <- item:
				case <-ctx.Done():
					// Last chance for a draining consumer; drop only if
					// nobody is receiving (abandoned stream).
					select {
					case out <- item:
					default:
					}
					return
				}
			}
		}()
	}
	go func() {
		defer close(out)
		defer wg.Wait()
		defer close(jobs)
		for i := range cfgs {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// runOne executes (or recalls) a single configuration. When another
// worker — possibly from a different scheduler sharing the cache — is
// already computing the same key, it waits for that result instead of
// recomputing (single-flight).
func (s *Scheduler) runOne(ctx context.Context, in *Input, cfg Config, dsKey string, memo *inputHasher, i int) Item {
	if err := ctx.Err(); err != nil {
		return Item{Index: i, Result: &Result{Config: cfg, Err: err}}
	}
	if s.cache == nil {
		return Item{Index: i, Result: runInput(ctx, in, cfg)}
	}
	key := dsKey + "/" + cfg.cacheKey(memo)
	for {
		if r, ok := s.cache.lookup(key, cfg); ok {
			// The cached Result carries the first submitter's Config
			// (Label, pointer identities); answer with the caller's so
			// labels aren't misattributed across requests.
			obs.FromCtx(ctx).Event("cache_hit", obs.String("config", cfg.DisplayLabel()))
			rc := *r
			rc.Config = cfg
			return Item{Index: i, Result: &rc, CacheHit: true}
		}
		leader, fl := s.cache.claim(key)
		if leader {
			r := func() *Result {
				released := false
				releaseOnce := func(published *Result) {
					if !released {
						released = true
						s.cache.release(key, published)
					}
				}
				// Panic safety: a flight must never be left unreleased.
				defer func() { releaseOnce(nil) }()
				r := runInput(ctx, in, cfg)
				if r.Err == nil {
					entry := s.cache.put(key, r)
					// Wake the waiters before the (fsync'd) disk spill:
					// N-1 duplicates must not stall behind persistence.
					// The leader alone pays the write — that is what
					// durability costs one writer.
					releaseOnce(entry)
					s.cache.spill(key, r)
				}
				return r
			}()
			return Item{Index: i, Result: r}
		}
		// Someone else is computing this key: wait for them. A successful
		// leader hands its result over directly — not via the cache, which
		// may have rejected or already evicted it under its caps — so
		// duplicates never recompute. A failed leader publishes nothing;
		// the next loop iteration re-checks the cache and claims.
		select {
		case <-fl.done:
			if r := fl.result; r != nil {
				s.cache.countHit()
				obs.FromCtx(ctx).Event("cache_hit",
					obs.String("config", cfg.DisplayLabel()), obs.String("via", "single_flight"))
				rc := *r
				rc.Config = cfg
				return Item{Index: i, Result: &rc, CacheHit: true}
			}
		case <-ctx.Done():
			return Item{Index: i, Result: &Result{Config: cfg, Err: ctx.Err()}}
		}
	}
}

// RunAll drains Stream into an input-ordered slice. It returns the context
// error only when cancellation actually cost results — a cancel that lands
// after the last configuration completed still returns the full batch, so
// finished work is never thrown away. Unfinished slots are nil.
func (s *Scheduler) RunAll(ctx context.Context, in *Input, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	for item := range s.Stream(ctx, in, "", cfgs) {
		results[item.Index] = item.Result
	}
	if err := ctx.Err(); err != nil {
		for _, r := range results {
			if r == nil {
				return results, err
			}
		}
	}
	return results, nil
}

// inputHasher memoizes content digests of policies and workloads by
// pointer identity for the duration of one Stream call — a 100-point
// sweep serializes each once, not once per point. Content-addressing is
// preserved: the digest is still of the serialized bytes, the pointer
// only keys the memo. Hierarchies memoize their own digest (Digest), which
// outlives the call: a server shares one hierarchy across many jobs.
type inputHasher struct {
	mu sync.Mutex
	m  map[any]string
}

func newInputHasher() *inputHasher {
	return &inputHasher{m: make(map[any]string)}
}

func (ih *inputHasher) digest(key any, write func(w io.Writer)) string {
	ih.mu.Lock()
	if d, ok := ih.m[key]; ok {
		ih.mu.Unlock()
		return d
	}
	ih.mu.Unlock()
	h := sha256.New()
	write(h)
	d := hex.EncodeToString(h.Sum(nil))
	ih.mu.Lock()
	ih.m[key] = d
	ih.mu.Unlock()
	return d
}

// cacheKey derives a content-based key for the configuration: scalar
// parameters plus digests of the serialized hierarchies, policies and
// workload, so two configs that would anonymize identically share a cache
// entry regardless of pointer identity.
func (c *Config) cacheKey(memo *inputHasher) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%s|%s|%s|%v|%d|%d|%g|%g|%q|%q|",
		c.Mode, c.Algorithm, c.RelAlgo, c.TransAlgo, c.Flavor,
		c.K, c.M, c.Delta, c.Rho, c.QIs, c.Sensitive)
	names := make([]string, 0, len(c.Hierarchies))
	for name := range c.Hierarchies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hier := c.Hierarchies[name]
		fmt.Fprintf(h, "h:%s:%s|", name, hier.Digest())
	}
	if c.ItemHierarchy != nil {
		fmt.Fprintf(h, "ih:%s|", c.ItemHierarchy.Digest())
	}
	if c.Policy != nil {
		pol := c.Policy
		fmt.Fprintf(h, "p:%s|", memo.digest(pol, func(w io.Writer) {
			policy.WritePrivacy(w, pol.Privacy)
			fmt.Fprintf(w, "|")
			policy.WriteUtility(w, pol.Utility)
		}))
	}
	if c.Workload != nil {
		wl := c.Workload
		fmt.Fprintf(h, "w:%s|", memo.digest(wl, func(w io.Writer) { wl.Write(w) }))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a snapshot of cache effectiveness and occupancy counters.
// Misses count actual computations (single-flight leaders), so Hits+Misses
// equals the number of cache-backed runs even when duplicates arrive
// concurrently. Entries/Bytes are current occupancy against the configured
// caps; Evictions counts entries dropped to stay within them and Rejected
// counts results too large to ever fit the byte cap.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// DiskHits are hits served by rehydrating a persisted entry after a
	// RAM miss; DiskErrors count backing failures (degraded, not fatal).
	// DiskTransient is the subset of DiskErrors that classified transient
	// (faultfs.IsTransient) — a flaky disk shows here, a broken one only
	// in DiskErrors.
	DiskHits      uint64 `json:"disk_hits"`
	DiskErrors    uint64 `json:"disk_errors"`
	DiskTransient uint64 `json:"disk_transient"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	MaxEntries    int    `json:"max_entries"`
	MaxBytes      int64  `json:"max_bytes"`
	Evictions     uint64 `json:"evictions"`
	Rejected      uint64 `json:"rejected"`
}

// Default result-cache caps: a long-lived server must not grow without
// bound, so even NewCache is bounded. Override with NewCacheSized.
const (
	DefaultCacheEntries = 1024
	DefaultCacheBytes   = 256 << 20 // 256 MiB of approximate result memory
)

// Cache memoizes successful results by (dataset fingerprint, configuration)
// key in a size-bounded LRU: beyond the entry or byte cap the least
// recently used results are evicted, so a long-lived server's cache memory
// stays flat under sustained novel traffic. It is safe for concurrent use
// by many scheduler runs — secreta-serve shares one across all jobs — and
// deduplicates in-flight computations: concurrent requests for the same
// key run it once and share the result. Results handed out are shared, not
// copied; callers must treat them as immutable. A result served from the
// cache carries its records as Records, in interned form.
type Cache struct {
	lru     *registry.LRU
	mu      sync.Mutex // guards flights, backing and the counters
	flights map[string]*flight
	backing CacheBacking // nil: RAM-only
	hits    uint64
	misses  uint64
	// diskHits counts lookups served by rehydrating a persisted entry
	// (a subset of hits); diskErrors counts backing failures, which
	// degrade to misses/unsaved entries rather than failing the run.
	// diskTransient is the transient-classed subset of diskErrors.
	diskHits      uint64
	diskErrors    uint64
	diskTransient uint64
}

// flight is one in-progress computation. done is closed when the leader
// finishes; result carries its successful outcome directly to the
// waiters, so in-flight dedup holds even when the bounded cache rejects
// or immediately evicts the entry — a result bigger than the byte cap
// must not turn N concurrent identical requests into N serial
// recomputations. A failed flight leaves result nil and the waiters
// re-claim.
type flight struct {
	done   chan struct{}
	result *Result
}

// NewCache builds a result cache with the default caps.
func NewCache() *Cache {
	return NewCacheSized(DefaultCacheEntries, DefaultCacheBytes)
}

// NewCacheSized builds a result cache bounded by maxEntries entries and
// maxBytes of approximate result memory (the anonymized dataset dominates
// a result's size). A cap <= 0 disables that bound.
func NewCacheSized(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		lru:     registry.NewLRU(maxEntries, maxBytes),
		flights: make(map[string]*flight),
	}
}

// lookup answers key from RAM or, failing that, from the durable
// backing: a persisted entry is decoded (the caller's cfg is content-
// equal to the producer's, so it is re-attached), promoted into the RAM
// LRU, and counted as a hit. Backing errors degrade to a miss.
func (c *Cache) lookup(key string, cfg Config) (*Result, bool) {
	if v, ok := c.lru.Get(key); ok {
		c.countHit()
		return v.(*Result), true
	}
	c.mu.Lock()
	b := c.backing
	c.mu.Unlock()
	if b == nil {
		return nil, false
	}
	data, err := b.LoadResult(key)
	if err != nil {
		c.countDiskError(err)
		return nil, false
	}
	if data == nil {
		return nil, false
	}
	r, err := decodeResult(data, cfg)
	if err != nil {
		c.countDiskError(err)
		return nil, false
	}
	entry := c.put(key, r)
	c.mu.Lock()
	c.hits++
	c.diskHits++
	c.mu.Unlock()
	return entry, true
}

func (c *Cache) countDiskError(err error) {
	c.mu.Lock()
	c.diskErrors++
	if faultfs.IsTransient(err) {
		c.diskTransient++
	}
	c.mu.Unlock()
}

// countHit records a cache-backed answer that skipped computation —
// an LRU hit or a result handed over by a finishing flight.
func (c *Cache) countHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// claim registers the caller as the computer of key. When another flight
// is already up, it returns leader=false and that flight; its done
// channel closes when the leader finishes.
func (c *Cache) claim(key string) (leader bool, f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return false, f
	}
	c.flights[key] = &flight{done: make(chan struct{})}
	c.misses++
	return true, nil
}

// release ends the caller's flight, publishing r (nil when the run
// failed) to the waiters and waking them.
func (c *Cache) release(key string, r *Result) {
	c.mu.Lock()
	f := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if f != nil {
		f.result = r
		close(f.done)
	}
}

// put inserts r, whose records are interned, into the RAM LRU only and
// returns it, for the waiters, who share its one compact record source
// with the caller's job and later hits; callers spill separately, after
// releasing the waiters. The byte cost is the string-form estimate.
func (c *Cache) put(key string, r *Result) *Result {
	c.lru.Put(key, r, resultCost(r))
	return r
}

// spill writes the entry through to the durable backing. A failure here
// only costs post-restart reuse; the RAM entry and the job's own result
// are unaffected.
func (c *Cache) spill(key string, r *Result) {
	c.mu.Lock()
	b := c.backing
	c.mu.Unlock()
	if b == nil {
		return
	}
	data, err := encodeResult(r)
	if err == nil {
		err = b.SaveResult(key, data)
	}
	if err != nil {
		c.countDiskError(err)
	}
}

// resultCost approximates a cached Result's resident size for the byte
// cap from its records' string form (dataset ApproxBytes): the records
// dominate; config, indicators and phase timings are a small constant.
func resultCost(r *Result) int64 {
	var n int64 = 512
	if r.Records != nil {
		n += r.Records.ApproxBytes()
	}
	return n
}

// Stats snapshots the cache counters. Hits/Misses are the scheduler-level
// counters (misses = computations); occupancy and eviction numbers come
// from the underlying LRU.
func (c *Cache) Stats() CacheStats {
	ls := c.lru.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		DiskHits:      c.diskHits,
		DiskErrors:    c.diskErrors,
		DiskTransient: c.diskTransient,
		Entries:       ls.Entries,
		Bytes:         ls.Bytes,
		MaxEntries:    ls.MaxEntries,
		MaxBytes:      ls.MaxBytes,
		Evictions:     ls.Evictions,
		Rejected:      ls.Rejected,
	}
}
