package engine

import (
	"context"
	"errors"
	"testing"
)

// mapBacking is an in-memory CacheBacking standing in for the on-disk
// store: it survives across Cache instances the way a data dir survives
// across processes.
type mapBacking struct {
	m     map[string][]byte
	saves int
	fail  bool
}

func newMapBacking() *mapBacking { return &mapBacking{m: make(map[string][]byte)} }

func (b *mapBacking) SaveResult(key string, data []byte) error {
	if b.fail {
		return errors.New("disk full")
	}
	b.m[key] = append([]byte(nil), data...)
	b.saves++
	return nil
}

func (b *mapBacking) LoadResult(key string) ([]byte, error) {
	if b.fail {
		return nil, errors.New("io error")
	}
	data, ok := b.m[key]
	if !ok {
		return nil, nil
	}
	return data, nil
}

// TestCachePersistsAcrossInstances is the restart story at engine level:
// a result computed under one Cache is a hit under a fresh Cache sharing
// the same backing, with the anonymized dataset and indicators intact.
func TestCachePersistsAcrossInstances(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	backing := newMapBacking()
	cfg := Config{Mode: Relational, Algorithm: "cluster", K: 4, Hierarchies: hs}

	cacheA := NewCacheSized(8, 0)
	cacheA.SetBacking(backing)
	schedA := NewScheduler(1, cacheA)
	first, err := schedA.RunAll(context.Background(), ds, []Config{cfg})
	if err != nil || first[0].Err != nil {
		t.Fatal(err, first[0].Err)
	}
	if backing.saves != 1 {
		t.Fatalf("saves=%d want 1 (write-through on put)", backing.saves)
	}

	// "Restart": a brand-new cache over the same backing.
	cacheB := NewCacheSized(8, 0)
	cacheB.SetBacking(backing)
	schedB := NewScheduler(1, cacheB)
	var hit bool
	var again *Result
	for item := range schedB.Stream(context.Background(), ds, "", []Config{cfg}) {
		hit, again = item.CacheHit, item.Result
	}
	if !hit {
		t.Fatal("fresh cache over a warm backing missed")
	}
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if again.Records == nil || collect(again.Records).Fingerprint() != first[0].Anonymized().Fingerprint() {
		t.Fatal("rehydrated anonymized records differ from the computed ones")
	}
	if again.Indicators != first[0].Indicators {
		t.Fatalf("rehydrated indicators %+v != %+v", again.Indicators, first[0].Indicators)
	}
	if again.Runtime != first[0].Runtime {
		t.Fatalf("rehydrated runtime %v != %v", again.Runtime, first[0].Runtime)
	}
	s := cacheB.Stats()
	if s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v: want exactly one (disk) hit", s)
	}

	// The promoted entry now lives in RAM: a third run hits without
	// touching the backing.
	backing.fail = true
	var hit3 bool
	for item := range schedB.Stream(context.Background(), ds, "", []Config{cfg}) {
		hit3 = item.CacheHit
	}
	if !hit3 {
		t.Fatal("promoted entry not served from RAM")
	}
	if got := cacheB.Stats().DiskErrors; got != 0 {
		t.Fatalf("RAM hit touched the failing backing (%d disk errors)", got)
	}
}

// TestCacheBackingFailuresDegrade verifies persistence can never fail a
// job: saves and loads that error are counted and ignored.
func TestCacheBackingFailuresDegrade(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	backing := newMapBacking()
	backing.fail = true
	cache := NewCacheSized(8, 0)
	cache.SetBacking(backing)
	sched := NewScheduler(1, cache)
	cfg := Config{Mode: Relational, Algorithm: "cluster", K: 3, Hierarchies: hs}
	res, err := sched.RunAll(context.Background(), ds, []Config{cfg})
	if err != nil || res[0].Err != nil {
		t.Fatal(err, res[0].Err)
	}
	s := cache.Stats()
	// One failed load (lookup) and one failed save (put).
	if s.DiskErrors != 2 {
		t.Fatalf("disk_errors=%d want 2", s.DiskErrors)
	}
	if s.Entries != 1 {
		t.Fatal("RAM cache must still hold the result")
	}
}

// TestEncodeDecodeResultRoundTrip exercises the serializer directly,
// including the phase timings the scheduler-level tests don't inspect.
func TestEncodeDecodeResultRoundTrip(t *testing.T) {
	ds, hs, _, _ := fixture(t)
	r := Run(ds, Config{Mode: Relational, Algorithm: "topdown", K: 2, Hierarchies: hs})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	data, err := encodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(data, r.Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Phases) != len(r.Phases) {
		t.Fatalf("phases %d != %d", len(got.Phases), len(r.Phases))
	}
	for i := range r.Phases {
		if got.Phases[i] != r.Phases[i] {
			t.Fatalf("phase %d: %+v != %+v", i, got.Phases[i], r.Phases[i])
		}
	}
	if got.Anonymized().Fingerprint() != r.Anonymized().Fingerprint() {
		t.Fatal("anonymized dataset did not round-trip")
	}
	if _, err := decodeResult([]byte("{garbage"), r.Config); err == nil {
		t.Fatal("corrupt entry decoded")
	}
}
