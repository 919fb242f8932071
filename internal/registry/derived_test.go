package registry

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"secreta/internal/dataset"
)

// testSlot is what the tests derive: it keeps its build's charge func.
type testSlot struct{ charge func(int64) bool }

// derive returns id's slot, counting the builds.
func derive(t *testing.T, r *Registry, id string, builds *atomic.Int32) *testSlot {
	t.Helper()
	v, err := r.Derived(id, func(_ *dataset.Dataset, charge func(int64) bool) any {
		builds.Add(1)
		return &testSlot{charge: charge}
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(*testSlot)
}

// wantBytes checks the registry's occupancy.
func wantBytes(t *testing.T, r *Registry, want int64) {
	t.Helper()
	if got := r.Stats().Bytes; got != want {
		t.Fatalf("Stats().Bytes = %d, want %d", got, want)
	}
}

// wantResident checks that each id has a decoded copy in RAM, or that
// none has.
func wantResident(t *testing.T, r *Registry, resident bool, ids ...string) {
	t.Helper()
	for _, id := range ids {
		info, err := r.Describe(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if info.Resident != resident {
			t.Fatalf("%s resident = %v, want %v", id, info.Resident, resident)
		}
	}
}

// TestDerivedSlotOncePerResidency: concurrent callers share one build,
// the slot's bytes show in Stats, and Remove drops the slot with the
// entry, so the dataset re-added starts with a fresh one.
func TestDerivedSlotOncePerResidency(t *testing.T) {
	r := New(0, 0)
	ds := testDataset(t, 1)
	id, _, _ := r.Add(ds)
	base := r.Stats().Bytes
	_, release, err := r.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int32
	slots := make([]*testSlot, 8)
	var wg sync.WaitGroup
	for i := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots[i] = derive(t, r, id, &builds)
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("slot built %d times, want once", builds.Load())
	}
	for _, s := range slots[1:] {
		if s != slots[0] {
			t.Fatal("concurrent callers got different slots")
		}
	}
	if !slots[0].charge(1000) {
		t.Fatal("charge refused by an uncapped registry")
	}
	wantBytes(t, r, base+1000)
	if info, _ := r.Describe(id); info.Bytes != base {
		t.Fatalf("Describe bytes = %d, want the dataset's own %d", info.Bytes, base)
	}
	release()

	if err := r.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Derived(id, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Derived after Remove = %v, want ErrNotFound", err)
	}
	wantBytes(t, r, 0)
	if slots[0].charge(10) {
		t.Fatal("a removed entry's slot accepted a charge")
	}
	r.Add(ds)
	_, release, _ = r.Pin(id)
	defer release()
	if derive(t, r, id, &builds) == slots[0] || builds.Load() != 2 {
		t.Fatal("re-added dataset reused the removed entry's slot")
	}
}

// TestDerivedSlotBoundedByByteCap: in a backed registry a slot's growth
// counts against the byte cap like the dataset's own bytes do — it
// evicts other datasets' RAM copies, and the grown entry itself ages out
// — but a slot that alone would outgrow the cap is emptied instead.
func TestDerivedSlotBoundedByByteCap(t *testing.T) {
	dsA := backedSample(t, 3, "a")
	cost := dsA.ApproxBytes()
	r := newBackedRegistry(t, t.TempDir(), 0, 3*cost)
	idA, _, _ := r.Add(dsA)
	idB, _, _ := r.Add(backedSample(t, 3, "b"))
	var builds atomic.Int32

	// A's slot grows by a dataset's worth: both still fit.
	_, relA, _ := r.Pin(idA)
	if !derive(t, r, idA, &builds).charge(cost) {
		t.Fatal("charge within the cap refused")
	}
	relA()
	wantBytes(t, r, 3*cost)
	// Touching B leaves A, the grown entry, least recently used; a third
	// dataset then evicts A's RAM copy alone, and with it its slot.
	_, relB, _ := r.Pin(idB)
	relB()
	idC, _, _ := r.Add(backedSample(t, 3, "c"))
	wantResident(t, r, false, idA)
	wantResident(t, r, true, idB, idC)
	wantBytes(t, r, 2*cost)

	// B's slot grows by two datasets' worth: C's RAM copy makes room.
	_, relB, _ = r.Pin(idB)
	defer relB()
	slotB := derive(t, r, idB, &builds)
	if !slotB.charge(2 * cost) {
		t.Fatal("charge that fits once others are evicted refused")
	}
	wantResident(t, r, false, idC)
	wantBytes(t, r, 3*cost)

	// Past the cap on its own: refused, and the slot is emptied while B
	// stays resident.
	if slotB.charge(3 * cost) {
		t.Fatal("charge past the cap accepted")
	}
	wantResident(t, r, true, idB)
	wantBytes(t, r, cost)
	if derive(t, r, idB, &builds) == slotB {
		t.Fatal("refused slot still handed out")
	}
}

// TestDerivedSlotNeverDeletesMemoryOnlyDatasets: a memory-only registry
// holds the only copy of each dataset, so neither a growing slot nor an
// upload that needs the slot's room may delete one; the slot is emptied
// instead and rebuilt by its next user.
func TestDerivedSlotNeverDeletesMemoryOnlyDatasets(t *testing.T) {
	dsA := testDataset(t, 1)
	cost := dsA.ApproxBytes()
	r := New(0, 3*cost)
	idA, _, _ := r.Add(dsA)
	idB, _, _ := r.Add(testDataset(t, 2))
	var builds atomic.Int32
	_, relA, _ := r.Pin(idA)
	defer relA()

	slotA := derive(t, r, idA, &builds)
	if !slotA.charge(cost) {
		t.Fatal("charge within the cap refused")
	}
	wantBytes(t, r, 3*cost)
	// Growing further would need B's room: refused, slot emptied, B kept.
	if slotA.charge(2 * cost) {
		t.Fatal("charge that needs an eviction accepted")
	}
	wantBytes(t, r, 2*cost)
	wantResident(t, r, true, idA, idB)
	if slotA.charge(cost) {
		t.Fatal("an emptied slot's build accepted a charge")
	}

	// A fresh slot takes the free room again; an upload then sheds it
	// rather than evicting a dataset.
	slotA = derive(t, r, idA, &builds)
	if builds.Load() != 2 || !slotA.charge(cost) {
		t.Fatal("emptied slot not rebuilt and recharged")
	}
	relA()
	idC, _, _ := r.Add(testDataset(t, 3))
	wantResident(t, r, true, idA, idB, idC)
	wantBytes(t, r, 3*cost)
	_, relA2, _ := r.Pin(idA)
	defer relA2()
	if derive(t, r, idA, &builds) == slotA {
		t.Fatal("shed slot still handed out")
	}

	// A slot that alone outgrows the cap is emptied, never its dataset.
	_, relC, _ := r.Pin(idC)
	defer relC()
	if derive(t, r, idC, &builds).charge(3 * cost) {
		t.Fatal("charge past the cap accepted")
	}
	relC()
	wantResident(t, r, true, idA, idB, idC)
	if s := r.Stats(); s.Evictions != 0 {
		t.Fatalf("%d evictions, want none", s.Evictions)
	}
}

// TestDerivedSlotFreshAfterReload: a backed dataset evicted from RAM and
// reloaded from disk is a new residency with a new slot.
func TestDerivedSlotFreshAfterReload(t *testing.T) {
	r := newBackedRegistry(t, t.TempDir(), 1, 0)
	idA, _, _ := r.Add(backedSample(t, 3, "a"))
	var builds atomic.Int32
	_, rel, _ := r.Pin(idA)
	first := derive(t, r, idA, &builds)
	rel()
	r.Add(backedSample(t, 3, "b")) // evicts A from RAM
	_, rel, err := r.Pin(idA)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if derive(t, r, idA, &builds) == first || builds.Load() != 2 {
		t.Fatal("reloaded dataset kept its evicted slot")
	}
}
