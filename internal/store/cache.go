package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"

	"secreta/internal/faultfs"
)

// CacheStore spills engine result-cache entries to disk so cached
// anonymizations survive a restart. Keys are the engine's content cache
// keys (dataset fingerprint + config digest, '/'-joined); file names are
// their SHA-256 so any key is a safe single-segment name. The directory
// is bounded by entry and byte caps (operator-tunable through
// secreta-serve's -disk-cache-entries / -disk-cache-bytes, defaulting to
// the package constants), trimmed oldest-first after each save.
type CacheStore struct {
	blobs      *BlobDir
	maxEntries int
	maxBytes   int64

	mu        sync.Mutex
	sinceTrim int
}

// trimEvery is the save cadence between Trim passes. Trim walks the whole
// directory (a stat per entry), which is far too expensive to pay on
// every write — the caps may transiently overshoot by up to trimEvery
// entries between passes.
const trimEvery = 64

// newCacheStore creates dir if needed; caps <= 0 pick the package
// defaults.
func newCacheStore(fsys faultfs.FS, d *diag, dir string, maxEntries int, maxBytes int64) (*CacheStore, error) {
	blobs, err := newBlobDir(fsys, d, dir, ".json")
	if err != nil {
		return nil, err
	}
	if maxEntries <= 0 {
		maxEntries = DefaultDiskCacheEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	return &CacheStore{blobs: blobs, maxEntries: maxEntries, maxBytes: maxBytes}, nil
}

func cacheFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// SaveResult durably writes one serialized cache entry, trimming the
// directory back under its caps every trimEvery saves. It satisfies
// engine.CacheBacking.
func (c *CacheStore) SaveResult(key string, data []byte) error {
	if err := c.blobs.Put(cacheFileName(key), data); err != nil {
		return err
	}
	c.mu.Lock()
	c.sinceTrim++
	due := c.sinceTrim >= trimEvery
	if due {
		c.sinceTrim = 0
	}
	c.mu.Unlock()
	if !due {
		return nil
	}
	// Best-effort: a failed trim only delays the bound, the entry itself
	// is durable. Trim counts and logs its own failures (trim_errors on
	// /stats), so they must not masquerade as a failed save — the engine
	// would misclassify the write as a disk error.
	_, _ = c.blobs.Trim(c.maxEntries, c.maxBytes)
	return nil
}

// LoadResult reads one serialized cache entry; (nil, nil) when absent.
func (c *CacheStore) LoadResult(key string) ([]byte, error) {
	data, err := c.blobs.Get(cacheFileName(key))
	if errors.Is(err, ErrNoBlob) {
		return nil, nil
	}
	return data, err
}

// Free deletes the oldest entries until at least need bytes are gone —
// the GC sweeper's first lever, since cache entries are always
// reconstructible. It reports how many entries were removed.
func (c *CacheStore) Free(need int64) int {
	removed, _ := c.blobs.Free(need)
	return removed
}

// Stats reports the cache directory's occupancy.
func (c *CacheStore) Stats() BlobStats { return c.blobs.Stats() }

// Caps reports the configured entry and byte bounds, for /stats.
func (c *CacheStore) Caps() (maxEntries int, maxBytes int64) {
	return c.maxEntries, c.maxBytes
}
