package registry

import (
	"container/list"
	"sync"
)

// LRU is a size-bounded least-recently-used cache with per-entry byte
// costs and ref-counted pinning. It bounds both the entry count and the
// total byte cost; when either cap is exceeded the least recently used
// unpinned entries are evicted. Pinned entries (refcount > 0) are never
// evicted, so the caps can be temporarily exceeded while everything
// resident is in use — the overshoot drains as pins are released and the
// next Put evicts. An LRU with both caps <= 0 is unbounded.
//
// All methods are safe for concurrent use.
type LRU struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64
	pinned     int
	hits       uint64
	misses     uint64
	evictions  uint64
	rejected   uint64
}

// lruEntry is one resident cache entry.
type lruEntry struct {
	key   string
	value any
	cost  int64
	pins  int
}

// NewLRU builds an LRU bounded by maxEntries entries and maxBytes total
// cost. A cap <= 0 disables that bound.
func NewLRU(maxEntries int, maxBytes int64) *LRU {
	return &LRU{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (l *LRU) Get(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		return nil, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Contains reports whether key is resident without touching recency or the
// hit/miss counters.
func (l *LRU) Contains(key string) bool {
	_, ok := l.Peek(key)
	return ok
}

// Peek returns the value stored under key without touching recency or the
// hit/miss counters.
func (l *LRU) Peek(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).value, true
}

// Put stores value under key with the given byte cost, replacing any
// previous entry (pins carry over on replace). Entries whose cost alone
// exceeds the byte cap are not stored — admitting one would immediately
// evict the entire cache to make room for an entry that still wouldn't
// fit; that is the only case in which Put reports false. The entry being
// inserted is itself exempt from the eviction pass, so when every other
// resident is pinned the cache overshoots its caps instead of bouncing
// the newcomer — the overshoot drains as pins release.
func (l *LRU) Put(key string, value any, cost int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.putLocked(key, value, cost)
}

// Recost changes the byte cost of key while key still holds value
// (compared with ==), and reports whether it did: a caller whose entry
// grew since it was stored recharges it this way without resurrecting it
// if it was evicted or replaced meanwhile. A shrink always succeeds. A
// growth is refused when it would take the entry alone past the byte cap,
// or — unless evict is set — the cache as a whole; an accepted growth with
// evict set then evicts other unpinned entries, like Put's replace path,
// until the caps hold. Recost never evicts key itself.
func (l *LRU) Recost(key string, value any, cost int64, evict bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok || el.Value.(*lruEntry).value != value {
		return false
	}
	e := el.Value.(*lruEntry)
	cost = max(cost, 0)
	grow := cost - e.cost
	if grow > 0 && l.maxBytes > 0 && (cost > l.maxBytes || !evict && l.bytes+grow > l.maxBytes) {
		return false
	}
	l.bytes += grow
	e.cost = cost
	if evict {
		l.evictLocked(el)
	}
	return true
}

func (l *LRU) putLocked(key string, value any, cost int64) bool {
	if cost < 0 {
		cost = 0
	}
	if l.maxBytes > 0 && cost > l.maxBytes {
		if el, ok := l.items[key]; ok && el.Value.(*lruEntry).pins == 0 {
			l.removeElement(el)
			l.evictions++
		}
		l.rejected++
		return false
	}
	el, ok := l.items[key]
	if ok {
		e := el.Value.(*lruEntry)
		l.bytes += cost - e.cost
		e.value, e.cost = value, cost
		l.ll.MoveToFront(el)
	} else {
		el = l.ll.PushFront(&lruEntry{key: key, value: value, cost: cost})
		l.items[key] = el
		l.bytes += cost
	}
	l.evictLocked(el)
	return true
}

// Pin returns the value under key and increments its pin count; a pinned
// entry cannot be evicted or removed until every pin is released. Callers
// must pair each successful Pin with exactly one Unpin.
func (l *LRU) Pin(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if e.pins == 0 {
		l.pinned++
	}
	e.pins++
	l.hits++
	l.ll.MoveToFront(el)
	return e.value, true
}

// Unpin releases one pin on key. Unpinning a missing or unpinned key is a
// no-op, so a release func can be deferred unconditionally.
func (l *LRU) Unpin(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry)
	if e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 {
		l.pinned--
		// The entry may have been keeping the cache over its caps while
		// pinned; settle up now.
		l.evictLocked(nil)
	}
}

// Remove deletes the entry under key. It refuses (returning false) when
// the entry is pinned; a missing key reports true, as the postcondition
// "key is not resident" already holds.
func (l *LRU) Remove(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return true
	}
	if el.Value.(*lruEntry).pins > 0 {
		return false
	}
	l.removeElement(el)
	return true
}

// evictLocked drops least-recently-used unpinned entries until both caps
// hold, or only pinned entries (and keep, the entry being inserted by the
// caller, nil-able) remain — a freshly admitted entry must not be bounced
// straight back out just because everything older is pinned. Caller holds
// l.mu.
func (l *LRU) evictLocked(keep *list.Element) {
	over := func() bool {
		return (l.maxEntries > 0 && l.ll.Len() > l.maxEntries) ||
			(l.maxBytes > 0 && l.bytes > l.maxBytes)
	}
	el := l.ll.Back()
	for over() && el != nil {
		prev := el.Prev()
		if el != keep && el.Value.(*lruEntry).pins == 0 {
			l.removeElement(el)
			l.evictions++
		}
		el = prev
	}
}

func (l *LRU) removeElement(el *list.Element) {
	e := el.Value.(*lruEntry)
	l.ll.Remove(el)
	delete(l.items, e.key)
	l.bytes -= e.cost
}

// Range calls fn for every resident entry from most to least recently
// used, stopping early when fn returns false. The lock is held for the
// whole traversal: fn must not call back into the LRU.
func (l *LRU) Range(fn func(key string, value any, cost int64, pins int) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for el := l.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if !fn(e.key, e.value, e.cost, e.pins) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of an LRU's occupancy and
// effectiveness counters.
type Stats struct {
	// Entries and Bytes are current occupancy; MaxEntries/MaxBytes are
	// the configured caps (0 = unbounded).
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxEntries int   `json:"max_entries"`
	MaxBytes   int64 `json:"max_bytes"`
	// Pinned counts entries currently held by at least one pin.
	Pinned int `json:"pinned"`
	// Hits and Misses count Get/Pin lookups; Evictions counts entries
	// dropped by the caps (not explicit Removes); Rejected counts Puts
	// refused because a single entry exceeded the byte cap.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Rejected  uint64 `json:"rejected"`
}

// Stats snapshots the cache counters.
func (l *LRU) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Entries:    l.ll.Len(),
		Bytes:      l.bytes,
		MaxEntries: l.maxEntries,
		MaxBytes:   l.maxBytes,
		Pinned:     l.pinned,
		Hits:       l.hits,
		Misses:     l.misses,
		Evictions:  l.evictions,
		Rejected:   l.rejected,
	}
}
