// Package registry provides the concurrent storage subsystem of the
// anonymization service: a content-addressed dataset store and a generic
// size-bounded LRU cache, both with explicit eviction and sharing
// semantics.
//
// The Registry stores decoded datasets keyed by their content fingerprint,
// so a dataset is uploaded once and referenced by ID from any number of
// jobs instead of being resubmitted inline with each request. References
// are ref-counted pins: a dataset pinned by a running job cannot be
// evicted or deleted until every pin is released, while unpinned datasets
// age out least-recently-used under configurable entry and byte caps. The
// same LRU primitive backs the engine's result cache, giving the service
// one bounded-memory story across both layers.
//
// A Registry may additionally be backed by a durable Backing (the
// server's on-disk blob store): every upload is written through to disk
// before it is acknowledged, RAM eviction then only drops the cached
// copy, and a later Pin transparently reloads the dataset from disk. With
// a backing, the registry is a pin-aware RAM cache over the durable
// store rather than the sole copy, and datasets survive process
// restarts.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"secreta/internal/dataset"
)

// ErrPinned is returned by Remove when the dataset is held by a running
// job.
var ErrPinned = errors.New("registry: dataset is pinned by a running job")

// ErrNotFound is returned when no dataset with the given ID is available —
// either it was never uploaded, or it has been evicted (memory-only
// registry) or deleted.
var ErrNotFound = errors.New("registry: no such dataset")

// ErrTooLarge is returned by Add when a single dataset exceeds the
// registry's byte cap and could therefore never be resident.
var ErrTooLarge = errors.New("registry: dataset exceeds the registry byte cap")

// ErrStore is returned when the durable backing fails (I/O error, corrupt
// blob). It is distinct from ErrNotFound so callers can answer 500, not
// 404.
var ErrStore = errors.New("registry: dataset store failure")

// Backing is the durable side of a disk-backed registry. Save must be
// atomic and durable before returning; Load must verify integrity
// (content fingerprint) and fail rather than hand back a corrupt
// dataset; List describes every dataset the backing holds. Implemented
// by internal/store's *DatasetStore.
type Backing interface {
	Save(id string, ds *dataset.Dataset) error
	Load(id string) (*dataset.Dataset, error)
	Delete(id string) error
	List() ([]dataset.Meta, error)
}

// Registry is a content-addressed store of decoded datasets. The ID of a
// dataset is its content fingerprint: uploading identical bytes twice
// yields the same ID and one resident copy. Safe for concurrent use.
type Registry struct {
	lru      *LRU
	maxBytes int64

	// mu guards the durable index, the per-ID I/O gate and the lazy-pin
	// reservation counts. Disk I/O is never done under mu — a slow load of
	// one dataset must not stall operations on every other; busy
	// serializes disk operations per ID instead (and doubles as
	// single-flight for concurrent pin-misses).
	mu      sync.Mutex
	backing Backing
	meta    map[string]dataset.Meta
	busy    map[string]*sync.WaitGroup
	// refs counts lazy-pin reservations (PinLazy): the dataset's index
	// entry is held — Remove fails — but its bytes need not be resident.
	refs map[string]int
}

// New builds a memory-only registry bounded by maxDatasets entries and
// maxBytes of approximate in-memory dataset size. A cap <= 0 disables
// that bound.
func New(maxDatasets int, maxBytes int64) *Registry {
	return &Registry{lru: NewLRU(maxDatasets, maxBytes), maxBytes: maxBytes}
}

// NewBacked builds a registry whose datasets are written through to b and
// reloaded from it on demand; the entry/byte caps bound only the RAM
// cache, not the durable population. The backing's existing datasets are
// indexed immediately (this is the dataset half of crash recovery), but
// their bytes stay on disk until a job pins them.
func NewBacked(maxDatasets int, maxBytes int64, b Backing) (*Registry, error) {
	r := New(maxDatasets, maxBytes)
	r.backing = b
	r.meta = make(map[string]dataset.Meta)
	r.busy = make(map[string]*sync.WaitGroup)
	r.refs = make(map[string]int)
	list, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("%w: indexing datasets: %v", ErrStore, err)
	}
	for _, m := range list {
		r.meta[m.ID] = m
	}
	return r, nil
}

// beginIO claims the disk-I/O gate for id, waiting out any operation
// already in flight on it, and returns the release func. Per-ID: I/O on
// different datasets proceeds concurrently. Callers must not hold r.mu.
func (r *Registry) beginIO(id string) func() {
	r.mu.Lock()
	for {
		wg, inFlight := r.busy[id]
		if !inFlight {
			break
		}
		r.mu.Unlock()
		wg.Wait()
		r.mu.Lock()
	}
	wg := new(sync.WaitGroup)
	wg.Add(1)
	r.busy[id] = wg
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.busy, id)
		r.mu.Unlock()
		wg.Done()
	}
}

// Info describes one known dataset. Resident reports whether a decoded
// copy is currently in RAM; a disk-backed registry lists non-resident
// datasets too (Pins is necessarily 0 for those).
type Info struct {
	ID       string `json:"dataset_ref"`
	Attrs    int    `json:"attrs"`
	Records  int    `json:"records"`
	Bytes    int64  `json:"bytes"`
	Pins     int    `json:"pins"`
	Resident bool   `json:"resident"`
}

// Add stores ds under its content fingerprint and returns the ID. Adding
// a dataset that is already known refreshes its recency and reports
// created=false; the stored copy is kept, so callers must treat stored
// datasets as immutable. With a durable backing the dataset is written to
// disk before it is acknowledged. Unpinned datasets may be evicted from
// RAM to make room; when every resident is pinned the registry overshoots
// its caps rather than bouncing the newcomer, and only a dataset larger
// than the whole byte cap is refused (ErrTooLarge).
func (r *Registry) Add(ds *dataset.Dataset) (id string, created bool, err error) {
	id = ds.Fingerprint()
	if _, ok := r.lru.Get(id); ok {
		return id, false, nil
	}
	if r.backing == nil {
		if !r.lru.Put(id, ds, ds.ApproxBytes()) {
			return "", false, fmt.Errorf("%w (%d bytes)", ErrTooLarge, ds.ApproxBytes())
		}
		return id, true, nil
	}
	meta := ds.Meta(id)
	cost := meta.Bytes
	if r.maxBytes > 0 && cost > r.maxBytes {
		return "", false, fmt.Errorf("%w (%d bytes)", ErrTooLarge, cost)
	}
	end := r.beginIO(id)
	defer end()
	r.mu.Lock()
	_, known := r.meta[id]
	if !known {
		// Claim the index entry before the (slow) disk write, off-lock;
		// a concurrent identical upload sees the claim and answers
		// created=false with its own decoded copy. The index is RAM-only
		// (rebuilt from disk at boot), so a crash mid-save leaves no
		// trace of either.
		r.meta[id] = meta
	}
	r.mu.Unlock()
	if !known {
		if err := r.backing.Save(id, ds); err != nil {
			r.mu.Lock()
			delete(r.meta, id)
			r.mu.Unlock()
			return "", false, fmt.Errorf("%w: saving %q: %v", ErrStore, id, err)
		}
	}
	// Warm the RAM cache either way — the uploader is about to use it.
	// The size precheck above makes Put's only failure mode impossible.
	r.lru.Put(id, ds, cost)
	return id, !known, nil
}

// Pin returns the dataset stored under id and a release func. Until
// release is called the dataset cannot be evicted or removed, so a running
// job's input is guaranteed resident for the job's whole lifetime. With a
// durable backing, a dataset evicted from RAM is transparently reloaded
// from disk (and verified) here. release is idempotent and safe to defer
// unconditionally.
func (r *Registry) Pin(id string) (*dataset.Dataset, func(), error) {
	if v, ok := r.lru.Pin(id); ok {
		return v.(*dataset.Dataset), r.releaseFunc(id), nil
	}
	if r.backing == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	end := r.beginIO(id)
	defer end()
	// Re-check behind the gate: a concurrent Pin holding it before us may
	// have just loaded the dataset — the gate doubles as single-flight.
	if v, ok := r.lru.Pin(id); ok {
		return v.(*dataset.Dataset), r.releaseFunc(id), nil
	}
	r.mu.Lock()
	_, known := r.meta[id]
	r.mu.Unlock()
	if !known {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	ds, err := r.backing.Load(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: loading %q: %v", ErrStore, id, err)
	}
	// Re-insert under mu so a concurrent Remove cannot slip between the
	// index check and the Put and leave a deleted dataset resident.
	r.mu.Lock()
	if _, still := r.meta[id]; !still {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	ok := r.lru.Put(id, ds, ds.ApproxBytes())
	if ok {
		r.lru.Pin(id)
	}
	r.mu.Unlock()
	if !ok {
		// Only reachable when the byte cap shrank across a restart below
		// this dataset's size.
		return nil, nil, fmt.Errorf("%w (%d bytes)", ErrTooLarge, ds.ApproxBytes())
	}
	return ds, r.releaseFunc(id), nil
}

// PinLazy reserves the dataset under id now but defers the byte load:
// until release is called the dataset cannot be removed, yet its bytes
// need not be resident — resolve loads (and RAM-pins) them on first call.
// A queue of submitted jobs therefore holds index entries, not memory;
// pinned RAM scales with the number of *running* jobs. On a memory-only
// registry there is no durable copy to reload from, so PinLazy degrades
// to an eager Pin (reserving only the index would let eviction drop the
// sole copy while the job waits). release is idempotent and releases the
// resolve pin too.
func (r *Registry) PinLazy(id string) (resolve func() (*dataset.Dataset, error), release func(), err error) {
	if r.backing == nil {
		ds, rel, err := r.Pin(id)
		if err != nil {
			return nil, nil, err
		}
		return func() (*dataset.Dataset, error) { return ds, nil }, rel, nil
	}
	// Existence check and reservation in one critical section: a Remove
	// racing between them could delete a dataset this call just promised
	// to hold (Remove checks refs under the same mu).
	r.mu.Lock()
	_, known := r.meta[id]
	if !known && !r.lru.Contains(id) {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r.refs[id]++
	r.mu.Unlock()

	var mu sync.Mutex
	var inner func() // release of the resolve-time Pin
	released := false
	resolve = func() (*dataset.Dataset, error) {
		ds, rel, err := r.Pin(id)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		if released {
			// The job was torn down before (or while) the load finished;
			// don't leak the fresh pin.
			mu.Unlock()
			rel()
			return nil, fmt.Errorf("%w: %q (reservation released)", ErrNotFound, id)
		}
		if inner != nil {
			// Double resolve: keep one pin.
			mu.Unlock()
			rel()
			return ds, nil
		}
		inner = rel
		mu.Unlock()
		return ds, nil
	}
	release = func() {
		mu.Lock()
		if released {
			mu.Unlock()
			return
		}
		released = true
		rel := inner
		mu.Unlock()
		if rel != nil {
			rel()
		}
		r.mu.Lock()
		if r.refs[id] <= 1 {
			delete(r.refs, id)
		} else {
			r.refs[id]--
		}
		r.mu.Unlock()
	}
	return resolve, release, nil
}

// releaseFunc builds the idempotent unpin closure Pin hands out.
func (r *Registry) releaseFunc(id string) func() {
	released := false
	return func() {
		if !released {
			released = true
			r.lru.Unpin(id)
		}
	}
}

// Remove deletes the dataset under id — from RAM and, when backed, from
// disk. Removing a pinned dataset fails with ErrPinned; removing an
// unknown one fails with ErrNotFound.
func (r *Registry) Remove(id string) error {
	if r.backing == nil {
		if !r.lru.Contains(id) {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		if !r.lru.Remove(id) {
			return fmt.Errorf("%w: %q", ErrPinned, id)
		}
		return nil
	}
	end := r.beginIO(id)
	defer end()
	r.mu.Lock()
	meta, known := r.meta[id]
	if !known && !r.lru.Contains(id) {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if r.refs[id] > 0 {
		// Lazily pinned by a queued job: the bytes may not be resident,
		// but the dataset is spoken for all the same.
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPinned, id)
	}
	if !r.lru.Remove(id) {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPinned, id)
	}
	delete(r.meta, id)
	r.mu.Unlock()
	if known {
		if err := r.backing.Delete(id); err != nil {
			// The RAM copy is gone but the blob survived; restore the
			// index entry so the dataset is not orphaned on disk.
			r.mu.Lock()
			r.meta[id] = meta
			r.mu.Unlock()
			return fmt.Errorf("%w: deleting %q: %v", ErrStore, id, err)
		}
	}
	return nil
}

// residency snapshots the RAM cache: id -> pin count.
func (r *Registry) residency() map[string]int {
	out := make(map[string]int)
	r.lru.Range(func(key string, _ any, _ int64, pins int) bool {
		out[key] = pins
		return true
	})
	return out
}

// Describe returns the Info of one known dataset without touching its
// recency — an info probe must not keep a dataset alive in RAM.
func (r *Registry) Describe(id string) (Info, error) {
	var out Info
	found := false
	r.lru.Range(func(key string, value any, cost int64, pins int) bool {
		if key != id {
			return true
		}
		ds := value.(*dataset.Dataset)
		out = Info{ID: key, Attrs: len(ds.Attrs), Records: len(ds.Records), Bytes: cost, Pins: pins, Resident: true}
		found = true
		return false
	})
	if r.backing == nil {
		if !found {
			return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return out, nil
	}
	// Backed: the durable index is authoritative for existence; the LRU
	// walk above only contributed residency and pins.
	r.mu.Lock()
	m, known := r.meta[id]
	r.mu.Unlock()
	if !known {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if !found {
		out = Info{ID: m.ID, Attrs: m.Attrs, Records: m.Records, Bytes: m.Bytes}
	}
	return out, nil
}

// List describes every known dataset — resident or (when backed)
// disk-only — sorted by ID for determinism.
func (r *Registry) List() []Info {
	var out []Info
	if r.backing == nil {
		r.lru.Range(func(key string, value any, cost int64, pins int) bool {
			ds := value.(*dataset.Dataset)
			out = append(out, Info{
				ID:       key,
				Attrs:    len(ds.Attrs),
				Records:  len(ds.Records),
				Bytes:    cost,
				Pins:     pins,
				Resident: true,
			})
			return true
		})
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	r.mu.Lock()
	metas := make([]dataset.Meta, 0, len(r.meta))
	for _, m := range r.meta {
		metas = append(metas, m)
	}
	r.mu.Unlock()
	resident := r.residency()
	for _, m := range metas {
		pins, res := resident[m.ID]
		out = append(out, Info{
			ID:       m.ID,
			Attrs:    m.Attrs,
			Records:  m.Records,
			Bytes:    m.Bytes,
			Pins:     pins,
			Resident: res,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots the RAM cache's occupancy and eviction counters.
func (r *Registry) Stats() Stats { return r.lru.Stats() }
