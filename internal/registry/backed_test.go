package registry

import (
	"errors"
	"sync"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/store"
)

func newBackedRegistry(t *testing.T, dir string, maxDatasets int, maxBytes int64) *Registry {
	t.Helper()
	ds, err := store.NewDatasetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewBacked(maxDatasets, maxBytes, ds)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func backedSample(t *testing.T, rows int, tag string) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Tag", Kind: dataset.Categorical},
	}, "")
	for i := 0; i < rows; i++ {
		if err := ds.AddRecord(dataset.Record{Values: []string{"25", tag}}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestBackedPinReloadsEvicted is the core cache-over-disk property: RAM
// eviction no longer loses a dataset, Pin reloads it from the blob store.
func TestBackedPinReloadsEvicted(t *testing.T) {
	dir := t.TempDir()
	r := newBackedRegistry(t, dir, 1, 0) // RAM holds one dataset at a time
	dsA, dsB := backedSample(t, 3, "a"), backedSample(t, 3, "b")
	idA, created, err := r.Add(dsA)
	if err != nil || !created {
		t.Fatalf("Add a: created=%v err=%v", created, err)
	}
	idB, _, err := r.Add(dsB)
	if err != nil {
		t.Fatal(err)
	}
	// Adding B evicted A from RAM (cap 1) — but not from disk.
	if got := r.Stats().Entries; got != 1 {
		t.Fatalf("RAM entries=%d want 1", got)
	}
	got, release, err := r.Pin(idA)
	if err != nil {
		t.Fatalf("Pin after eviction: %v", err)
	}
	defer release()
	if got.Fingerprint() != idA {
		t.Fatal("reloaded dataset mismatch")
	}
	// Both are still listed; exactly one more than the RAM cap is
	// resident now (A was re-inserted pinned while B aged out or stayed;
	// the durable index must show both regardless).
	infos := r.List()
	if len(infos) != 2 {
		t.Fatalf("List: %d datasets, want 2", len(infos))
	}
	for _, info := range infos {
		if info.ID == idB && info.Pins != 0 {
			t.Fatalf("B pinned: %+v", info)
		}
	}
}

// TestBackedSurvivesRestart rebuilds a registry over the same directory
// and expects the full index (and pinnable bytes) back.
func TestBackedSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r := newBackedRegistry(t, dir, 8, 0)
	ds := backedSample(t, 4, "x")
	id, _, err := r.Add(ds)
	if err != nil {
		t.Fatal(err)
	}

	r2 := newBackedRegistry(t, dir, 8, 0)
	infos := r2.List()
	if len(infos) != 1 || infos[0].ID != id || infos[0].Records != 4 {
		t.Fatalf("restarted index: %+v", infos)
	}
	if infos[0].Resident {
		t.Fatal("restart should leave datasets on disk, not decode them into RAM")
	}
	got, release, err := r2.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got.Fingerprint() != id {
		t.Fatal("restarted Pin returned wrong dataset")
	}
	// Re-upload of known content over a restart: created=false.
	if _, created, err := r2.Add(backedSample(t, 4, "x")); err != nil || created {
		t.Fatalf("re-upload: created=%v err=%v", created, err)
	}
}

func TestBackedRemoveDeletesDisk(t *testing.T) {
	dir := t.TempDir()
	r := newBackedRegistry(t, dir, 8, 0)
	ds := backedSample(t, 2, "y")
	id, _, err := r.Add(ds)
	if err != nil {
		t.Fatal(err)
	}
	_, release, err := r.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(id); !errors.Is(err, ErrPinned) {
		t.Fatalf("Remove while pinned: %v", err)
	}
	release()
	if err := r.Remove(id); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Remove: %v", err)
	}
	// Gone durably: a fresh registry over the same dir knows nothing.
	r2 := newBackedRegistry(t, dir, 8, 0)
	if got := len(r2.List()); got != 0 {
		t.Fatalf("removed dataset resurfaced: %d listed", got)
	}
	if _, _, err := r2.Pin(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Pin of removed: %v", err)
	}
}

func TestBackedTooLargeRefused(t *testing.T) {
	r := newBackedRegistry(t, t.TempDir(), 8, 64) // tiny byte cap
	big := backedSample(t, 100, "big")
	if _, _, err := r.Add(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Add: %v", err)
	}
	if got := len(r.List()); got != 0 {
		t.Fatalf("refused dataset still indexed: %d", got)
	}
}

// TestBackedConcurrentPinMisses hammers the per-ID I/O gate: many
// goroutines pinning the same evicted dataset must converge on one disk
// load (single-flight) without racing Remove on another ID.
func TestBackedConcurrentPinMisses(t *testing.T) {
	dir := t.TempDir()
	r := newBackedRegistry(t, dir, 1, 0)
	dsA, dsB := backedSample(t, 3, "a"), backedSample(t, 3, "b")
	idA, _, err := r.Add(dsA)
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := r.Add(dsB) // evicts A from RAM
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, release, err := r.Pin(idA)
			if err != nil {
				t.Errorf("Pin: %v", err)
				return
			}
			if ds.Fingerprint() != idA {
				t.Error("wrong dataset")
			}
			release()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Concurrent Remove of the *other* dataset must not interfere.
		if err := r.Remove(idB); err != nil && !errors.Is(err, ErrNotFound) {
			t.Errorf("Remove b: %v", err)
		}
	}()
	wg.Wait()
}

// TestBackedRemoveDuringPinLoad: removing a dataset must not let an
// in-flight Pin resurrect it into RAM afterwards.
func TestBackedRemoveWins(t *testing.T) {
	dir := t.TempDir()
	r := newBackedRegistry(t, dir, 1, 0)
	ds := backedSample(t, 3, "z")
	id, _, err := r.Add(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Add(backedSample(t, 3, "other")); err != nil { // evict z from RAM
		t.Fatal(err)
	}
	if err := r.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Pin(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Pin after Remove: %v", err)
	}
}
