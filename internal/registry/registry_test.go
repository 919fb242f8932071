package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"secreta/internal/dataset"
)

// testDataset builds a small dataset whose content (and therefore its
// fingerprint) is derived from seed, so distinct seeds give distinct IDs.
func testDataset(t testing.TB, seed int) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "age", Kind: dataset.Categorical},
		{Name: "zip", Kind: dataset.Categorical},
	}, "")
	for i := 0; i < 5; i++ {
		err := ds.AddRecord(dataset.Record{Values: []string{
			fmt.Sprintf("a%d-%d", seed, i),
			fmt.Sprintf("z%d-%d", seed, i),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU(3, 0)
	for _, k := range []string{"a", "b", "c"} {
		l.Put(k, k, 1)
	}
	// Touch "a" so "b" becomes the least recently used.
	if _, ok := l.Get("a"); !ok {
		t.Fatal("a missing")
	}
	l.Put("d", "d", 1)
	var got []string
	l.Range(func(key string, _ any, _ int64, _ int) bool {
		got = append(got, key)
		return true
	})
	if want := []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys after eviction = %v, want %v", got, want)
	}
	if l.Contains("b") {
		t.Fatal("b should have been evicted as least recently used")
	}
	if s := l.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestLRUByteCap(t *testing.T) {
	l := NewLRU(0, 100)
	for i := 0; i < 50; i++ {
		l.Put(fmt.Sprintf("k%d", i), i, 30)
		if s := l.Stats(); s.Bytes > 100 {
			t.Fatalf("bytes %d exceed cap 100 after put %d", s.Bytes, i)
		}
	}
	s := l.Stats()
	if s.Entries != 3 || s.Bytes != 90 {
		t.Fatalf("stats = %+v, want 3 entries / 90 bytes", s)
	}
	// An entry larger than the whole cap must be rejected, not admitted
	// by evicting everything else.
	if l.Put("huge", 0, 101) {
		t.Fatal("oversized entry was admitted")
	}
	if l.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", l.Stats().Rejected)
	}
	if s := l.Stats(); s.Entries != 3 {
		t.Fatalf("rejection disturbed residents: %+v", s)
	}
}

func TestLRUPinBlocksEviction(t *testing.T) {
	l := NewLRU(2, 0)
	l.Put("a", "a", 1)
	l.Put("b", "b", 1)
	if _, ok := l.Pin("a"); !ok {
		t.Fatal("pin a")
	}
	if _, ok := l.Pin("b"); !ok {
		t.Fatal("pin b")
	}
	// Both residents pinned: the insert overshoots the entry cap.
	l.Put("c", "c", 1)
	if !l.Contains("a") || !l.Contains("b") {
		t.Fatal("pinned entry was evicted")
	}
	if l.Remove("a") {
		t.Fatal("Remove succeeded on a pinned entry")
	}
	// Releasing the pins lets the cache settle back under its cap.
	l.Unpin("a")
	l.Unpin("b")
	if got := l.ll.Len(); got > 2 {
		t.Fatalf("cache still over cap after unpin: %d entries", got)
	}
}

func TestRegistryContentAddressing(t *testing.T) {
	r := New(8, 0)
	ds := testDataset(t, 1)
	id1, created, err := r.Add(ds)
	if err != nil || !created {
		t.Fatalf("first Add: id=%q created=%v err=%v", id1, created, err)
	}
	// Same content (fresh decode) → same ref, no new entry.
	id2, created, err := r.Add(testDataset(t, 1))
	if err != nil || created || id2 != id1 {
		t.Fatalf("re-Add: id=%q created=%v err=%v, want %q/false/nil", id2, created, err, id1)
	}
	if n := len(r.List()); n != 1 {
		t.Fatalf("registry has %d datasets, want 1", n)
	}
	got, release, err := r.Pin(id1)
	if err != nil || got.Fingerprint() != id1 {
		t.Fatalf("Pin returned wrong dataset (err=%v)", err)
	}
	release()
	info, err := r.Describe(id1)
	if err != nil || info.Records != 5 || info.Attrs != 2 {
		t.Fatalf("Describe = %+v, %v", info, err)
	}
	if _, err := r.Describe("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Describe(nope) = %v, want ErrNotFound", err)
	}
}

func TestRegistryPinBlocksRemoveAndEviction(t *testing.T) {
	r := New(2, 0)
	id1, _, _ := r.Add(testDataset(t, 1))
	ds, release, err := r.Pin(id1)
	if err != nil || ds == nil {
		t.Fatal(err)
	}
	if err := r.Remove(id1); !errors.Is(err, ErrPinned) {
		t.Fatalf("Remove(pinned) = %v, want ErrPinned", err)
	}
	// Fill past the cap: the pinned dataset must survive.
	r.Add(testDataset(t, 2))
	r.Add(testDataset(t, 3))
	r.Add(testDataset(t, 4))
	if _, err := r.Describe(id1); err != nil {
		t.Fatalf("pinned dataset evicted: %v", err)
	}
	release()
	release() // idempotent
	if err := r.Remove(id1); err != nil {
		t.Fatalf("Remove after release: %v", err)
	}
	if err := r.Remove(id1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Remove = %v, want ErrNotFound", err)
	}
}

// TestAddSucceedsWhenAllResidentsPinned pins the transient-full contract:
// when every resident dataset is pinned by running jobs, a new upload must
// still be admitted (overshooting the cap until pins release) — not
// bounced, and especially not misreported as "too large".
func TestAddSucceedsWhenAllResidentsPinned(t *testing.T) {
	r := New(2, 0)
	id1, _, _ := r.Add(testDataset(t, 1))
	_, rel1, err := r.Pin(id1)
	if err != nil {
		t.Fatal(err)
	}
	id2, _, _ := r.Add(testDataset(t, 2))
	_, rel2, err := r.Pin(id2)
	if err != nil {
		t.Fatal(err)
	}
	id3, created, err := r.Add(testDataset(t, 3))
	if err != nil || !created {
		t.Fatalf("Add with all residents pinned: created=%v err=%v", created, err)
	}
	if _, err := r.Describe(id3); err != nil {
		t.Fatalf("freshly admitted dataset bounced: %v", err)
	}
	rel1()
	rel2()
	if s := r.Stats(); s.Entries > 2 {
		t.Fatalf("registry did not settle under its cap after unpin: %d entries", s.Entries)
	}
}

// TestRegistryConcurrentChurn hammers Add/Pin/Get/Remove/List from many
// goroutines under -race. Beyond data races, it checks the invariants that
// survive churn: a pinned dataset is always readable until released, and
// the entry count respects the cap once everything is unpinned.
func TestRegistryConcurrentChurn(t *testing.T) {
	const (
		workers  = 8
		rounds   = 200
		distinct = 16
		maxDs    = 4
	)
	r := New(maxDs, 0)
	pool := make([]*dataset.Dataset, distinct)
	for i := range pool {
		pool[i] = testDataset(t, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				ds := pool[rng.Intn(distinct)]
				id, _, err := r.Add(ds)
				if err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				switch rng.Intn(3) {
				case 0:
					// Pin may race an eviction — losing is fine, but a won
					// pin must hand back the right dataset.
					if got, release, err := r.Pin(id); err == nil {
						if got.Fingerprint() != id {
							t.Errorf("pinned dataset has fingerprint %q, want %q", got.Fingerprint(), id)
						}
						release()
					}
				case 1:
					// Remove may hit ErrPinned or ErrNotFound under churn;
					// both are legal outcomes, panics/races are not.
					_ = r.Remove(id)
				default:
					r.List()
					r.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Stats()
	if s.Pinned != 0 {
		t.Fatalf("pins leaked: %d still held", s.Pinned)
	}
	if s.Entries > maxDs {
		t.Fatalf("registry over cap with no pins: %d > %d", s.Entries, maxDs)
	}
}
