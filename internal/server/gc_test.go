package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"secreta/internal/faultfs"
	"secreta/internal/store"
)

// Retention-sweeper invariant tests, driven through the exposed
// sweepOnce seam (no timers) and the faultfs fault-injection seam (no
// real disk failures needed).

// gcSubmit submits one anonymize job over ref with a per-call (k, m) so
// each job is a distinct (dataset, config) pair, and waits for it to
// finish. Use only on servers without a capped sweeper — it requires the
// terminal status to stay observable.
func gcSubmit(t *testing.T, base, ref string, k, m int) string {
	t.Helper()
	id := gcSubmitAsync(t, base, ref, k, m)
	if st := pollDone(t, base, id); st != StatusDone {
		t.Fatalf("job %s ended %s, want done", id, st)
	}
	return id
}

func gcSubmitAsync(t *testing.T, base, ref string, k, m int) string {
	t.Helper()
	resp, sub := postJSON(t, base+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": k, "m": m},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit k=%d m=%d: code=%d body=%v", k, m, resp.StatusCode, sub)
	}
	return sub["job"].(string)
}

// gcAwait waits for a job on a capped server to leave the queue: either
// a terminal status, or a 404 — which, since queued and running jobs are
// never evicted, can only mean it finished and a background sweep
// already took it.
func gcAwait(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, base+"/jobs/"+id)
		if code == http.StatusNotFound {
			return
		}
		if st, ok := body["status"].(string); ok && Status(st).Terminal() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s neither finished nor was swept in 30s", id)
}

// TestGCKeepsDataDirUnderCapAndSparesInFlight is the retention
// satellite's core invariant run: a capped data dir stays at or under
// the cap after every sweep while jobs keep landing, eviction takes the
// oldest terminal jobs first, and in-flight state — a queued job and the
// dataset it references — is never touched. The sweeper's clock is
// injected, so the last-sweep timestamp is asserted exactly.
func TestGCKeepsDataDirUnderCapAndSparesInFlight(t *testing.T) {
	dir := t.TempDir()

	// Phase 0, no GC: seed the data dir with a dataset and twelve
	// terminal jobs (more than one eviction batch), measuring the disk
	// cost of one finished job along the way.
	st, err := store.Open(dir, store.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1 := mustNew(t, ctx1, Options{Workers: 1, MaxConcurrentJobs: 1, Store: st})
	ts1 := httptest.NewServer(srv1.Handler())
	waitReady(t, ts1.URL)
	code, body := uploadDataset(t, ts1.URL, smallDatasetJSON(t, "gc"))
	if code != http.StatusCreated {
		t.Fatalf("upload: code=%d", code)
	}
	ref := body["dataset_ref"].(string)
	var seeded []string
	for k := 2; k < 8; k++ {
		seeded = append(seeded, gcSubmit(t, ts1.URL, ref, k, 1))
	}
	usageHalf := st.DiskUsage()
	for k := 2; k < 8; k++ {
		seeded = append(seeded, gcSubmit(t, ts1.URL, ref, k, 2))
	}
	perJob := (st.DiskUsage() - usageHalf) / 6
	if perJob <= 0 {
		t.Fatalf("per-job disk cost measured as %d", perJob)
	}
	ts1.Close()
	cancel1()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the cap BELOW the current footprint, by about three
	// jobs' worth: the first sweep must evict exactly one batch (the 8
	// oldest jobs) to get back under, deterministically sparing the 4
	// newest. The disk cache is emptied up front so lever 1 can't absorb
	// the overshoot and hide the eviction path under test.
	st2, err := store.Open(dir, store.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	st2.Cache.Free(math.MaxInt64)
	capBytes := st2.DiskUsage() - 3*perJob
	if capBytes <= 0 {
		t.Fatalf("cap computed as %d", capBytes)
	}
	t0 := time.Unix(1_800_000_000, 0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	srv2 := mustNew(t, ctx2, Options{
		Workers: 1, MaxConcurrentJobs: 1, Store: st2,
		DataMaxBytes: capBytes, GCInterval: time.Hour,
		Now: func() time.Time { return t0 },
	})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		cancel2()
		st2.Close()
	})
	waitReady(t, ts2.URL)

	// One controlled sweep: exactly the oldest batch goes.
	if usage := srv2.sweepOnce(); usage > capBytes {
		t.Fatalf("sweep left usage %d over cap %d", usage, capBytes)
	}
	if got := srv2.gc.evictedJobs.Load(); got != 8 {
		t.Fatalf("evicted jobs: %d, want one batch of 8", got)
	}
	for _, id := range seeded[:8] {
		if code, _ := getJSON(t, ts2.URL+"/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("evicted job %s: code=%d, want 404", id, code)
		}
	}
	// The 4 newest survive with retrievable results.
	for _, id := range seeded[8:] {
		if code, _ := getJSON(t, ts2.URL+"/jobs/"+id+"/result"); code != http.StatusOK {
			t.Fatalf("surviving job %s result: code=%d, want 200", id, code)
		}
	}
	if got := srv2.gc.view().LastSweepUnix; got != t0.Unix() {
		t.Fatalf("last_sweep_unix=%d, want the injected clock's %d", got, t0.Unix())
	}
	// The /stats gc block mirrors the sweeper.
	if code, stats := getJSON(t, ts2.URL+"/stats"); code != http.StatusOK {
		t.Fatalf("stats: code=%d", code)
	} else if gcb, ok := stats["gc"].(map[string]any); !ok {
		t.Fatalf("/stats has no gc block: %v", stats)
	} else if int64(gcb["max_bytes"].(float64)) != capBytes {
		t.Fatalf("gc.max_bytes=%v, want %d", gcb["max_bytes"], capBytes)
	}

	// In-flight protection: hold the server's only slot so a fresh job
	// stays queued, then sweep. The job and its dataset must both
	// survive, with no errors counted.
	releaseSlot := holdSlot(t, srv2, "")
	qresp, sub := postJSON(t, ts2.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 9, "m": 1},
	})
	if qresp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: code=%d body=%v", qresp.StatusCode, sub)
	}
	queuedID := sub["job"].(string)
	errsBefore := srv2.gc.errors.Load()
	if usage := srv2.sweepOnce(); usage > capBytes {
		t.Fatalf("sweep with queued job left usage %d over cap %d", usage, capBytes)
	}
	if code, jb := getJSON(t, ts2.URL+"/jobs/"+queuedID); code != http.StatusOK || jb["status"] != string(StatusQueued) {
		t.Fatalf("queued job after sweep: code=%d status=%v, want 200 queued", code, jb["status"])
	}
	if code, _ := getJSON(t, ts2.URL+"/datasets/"+ref); code != http.StatusOK {
		t.Fatalf("referenced dataset after sweep: code=%d, want 200", code)
	}
	if got := srv2.gc.errors.Load(); got != errsBefore {
		t.Fatalf("sweep around in-flight state counted errors: %d -> %d", errsBefore, got)
	}
	// Release the slot and let the job run. From here on, background
	// kick-triggered sweeps race the polls, so completion is observed
	// leniently (terminal, or already swept — never stuck in queue).
	releaseSlot()
	gcAwait(t, ts2.URL, queuedID)

	// Sustained load: six more jobs against the capped dir, sweeping
	// after each. The continuous invariant — the sweep always lands at or
	// under the cap.
	for k := 2; k < 8; k++ {
		gcAwait(t, ts2.URL, gcSubmitAsync(t, ts2.URL, ref, k, 3))
		if usage := srv2.sweepOnce(); usage > capBytes {
			t.Fatalf("sustained phase k=%d: sweep left usage %d over cap %d", k, usage, capBytes)
		}
	}
}

// TestGCTrimsDiskCacheBeforeJobs pins lever 1: a data dir just over its
// cap is brought back under by trimming the oldest disk-cache entries —
// only as many as the overage needs — before any finished job is
// evicted.
func TestGCTrimsDiskCacheBeforeJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1 := mustNew(t, ctx1, Options{Workers: 1, MaxConcurrentJobs: 1, Store: st})
	ts1 := httptest.NewServer(srv1.Handler())
	waitReady(t, ts1.URL)
	code, body := uploadDataset(t, ts1.URL, smallDatasetJSON(t, "lever1"))
	if code != http.StatusCreated {
		t.Fatalf("upload: code=%d", code)
	}
	ref := body["dataset_ref"].(string)
	for k := 2; k < 8; k++ {
		gcSubmit(t, ts1.URL, ref, k, 1)
	}
	ts1.Close()
	cancel1()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot one byte over the cap.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.Cache.Stats().Count; n != 6 {
		t.Fatalf("disk cache holds %d entries, want one per seeded job (6)", n)
	}
	capBytes := st2.DiskUsage() - 1
	ctx2, cancel2 := context.WithCancel(context.Background())
	srv2 := mustNew(t, ctx2, Options{
		Workers: 1, MaxConcurrentJobs: 1, Store: st2,
		DataMaxBytes: capBytes, GCInterval: time.Hour,
	})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		cancel2()
		st2.Close()
	})
	waitReady(t, ts2.URL)

	usage := srv2.sweepOnce()
	if got := srv2.gc.evictedJobs.Load(); got != 0 {
		t.Fatalf("evicted %d jobs, want 0 (the disk cache covers a one-byte overage)", got)
	}
	if got := srv2.gc.cacheTrimmed.Load(); got == 0 {
		t.Fatal("cache_trimmed = 0, want the oldest cache entries trimmed")
	}
	if n := st2.Cache.Stats().Count; n == 0 {
		t.Fatal("lever 1 emptied the disk cache, want a budgeted trim")
	}
	if usage > capBytes {
		t.Fatalf("sweep left usage %d over cap %d", usage, capBytes)
	}
}

// TestGCStuckDatasetSkippedNotWedged pins the stuck-file contract on the
// dataset lever: an ENOSPC on one blob's unlink increments gc errors and
// the store's trim_errors, leaves that dataset intact and indexed, and
// does NOT stop the sweep from clearing everything else; once the fault
// clears, the next sweep finishes the job.
func TestGCStuckDatasetSkippedNotWedged(t *testing.T) {
	fsys := faultfs.NewFaultFS(faultfs.OS, 1)
	st, err := store.Open(t.TempDir(), store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cap of one byte: everything on disk is permanently over budget, so
	// each sweep tries to remove every unclaimed, unpinned dataset.
	srv := mustNew(t, ctx, Options{Workers: 1, Store: st, DataMaxBytes: 1, GCInterval: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		st.Close()
	})
	waitReady(t, ts.URL)

	for _, tag := range []string{"s1", "s2", "s3"} {
		if code, _ := uploadDataset(t, ts.URL, smallDatasetJSON(t, tag)); code != http.StatusCreated {
			t.Fatalf("upload %s: code=%d", tag, code)
		}
	}
	countListed := func() int {
		code, body := getJSON(t, ts.URL+"/datasets")
		if code != http.StatusOK {
			t.Fatalf("dataset list: code=%d", code)
		}
		return len(body["datasets"].([]any))
	}

	// First removal the sweep attempts fails once with ENOSPC.
	fsys.Arm(faultfs.Rule{Op: faultfs.OpRemove, Path: "datasets/*", Nth: 1, Count: 0, Err: syscall.ENOSPC})
	srv.sweepOnce()
	if got := srv.gc.errors.Load(); got != 1 {
		t.Fatalf("gc errors after stuck sweep: %d, want 1", got)
	}
	if got := st.Stats().TrimErrors; got < 1 {
		t.Fatalf("store trim_errors after stuck sweep: %d, want >= 1", got)
	}
	if got := countListed(); got != 1 {
		t.Fatalf("datasets left after stuck sweep: %d, want exactly the stuck one", got)
	}
	if got := srv.gc.evictedDatasets.Load(); got != 2 {
		t.Fatalf("evicted datasets: %d, want 2 (sweep continued past the stuck file)", got)
	}

	// Fault gone: the next sweep removes the straggler. No wedge, no leak.
	fsys.Clear()
	srv.sweepOnce()
	if got := countListed(); got != 0 {
		t.Fatalf("datasets left after recovery sweep: %d, want 0", got)
	}
	if got := srv.gc.errors.Load(); got != 1 {
		t.Fatalf("gc errors after recovery sweep: %d, want still 1", got)
	}
	if got := srv.gc.evictedDatasets.Load(); got != 3 {
		t.Fatalf("evicted datasets after recovery sweep: %d, want 3", got)
	}
}

// TestGCCrashMidSweepRecoversClean pins crash consistency for the job
// lever: an eviction that commits its journal deletes but dies before
// the blob unlinks (simulated with persistent EIO on remove) leaves
// orphan result/trace blobs; the next boot's recovery sweeps exactly
// those orphans — no leak, no double-delete — and the server keeps
// working.
func TestGCCrashMidSweepRecoversClean(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.NewFaultFS(faultfs.OS, 1)
	st, err := store.Open(dir, store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1 := mustNew(t, ctx1, Options{Workers: 1, MaxConcurrentJobs: 1, Store: st})
	ts1 := httptest.NewServer(srv1.Handler())
	waitReady(t, ts1.URL)
	code, body := uploadDataset(t, ts1.URL, smallDatasetJSON(t, "cr"))
	if code != http.StatusCreated {
		t.Fatalf("upload: code=%d", code)
	}
	ref := body["dataset_ref"].(string)
	// An anonymize job (result stream) and an evaluate job (result
	// payload), so every job-blob kind has something to orphan.
	id1 := gcSubmit(t, ts1.URL, ref, 2, 1)
	_, sub := postJSON(t, ts1.URL+"/evaluate", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 3, "m": 1},
	})
	id2 := sub["job"].(string)
	if st := pollDone(t, ts1.URL, id2); st != StatusDone {
		t.Fatalf("evaluate job %s ended %s, want done", id2, st)
	}

	// Per job-blob kind: results, result streams, traces.
	countBlobs := func(s *store.Store) (total int, perKind []int) {
		t.Helper()
		for _, b := range s.JobBlobs() {
			names, err := b.Names()
			if err != nil {
				t.Fatal(err)
			}
			total += len(names)
			perKind = append(perKind, len(names))
		}
		return total, perKind
	}
	blobsBefore, perKind := countBlobs(st)
	for i, n := range perKind {
		if n == 0 {
			t.Fatalf("finished jobs left no blobs of kind %d (%v) to orphan", i, perKind)
		}
	}

	// Every blob unlink now fails: the eviction's journal deletes land,
	// the blobs stay — the on-disk state of a sweep cut down mid-unlink.
	fsys.Arm(faultfs.Rule{Op: faultfs.OpRemove, Path: "results/*", Count: -1, Err: syscall.EIO})
	fsys.Arm(faultfs.Rule{Op: faultfs.OpRemove, Path: "traces/*", Count: -1, Err: syscall.EIO})
	if ids := srv1.jobs.evictOldestTerminal(2); len(ids) != 2 {
		t.Fatalf("evicted %v, want both jobs", ids)
	}
	for _, id := range []string{id1, id2} {
		if code, _ := getJSON(t, ts1.URL+"/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("evicted job %s: code=%d, want 404", id, code)
		}
	}
	if got, _ := countBlobs(st); got != blobsBefore {
		t.Fatalf("blobs after failed unlinks: %d, want all %d still on disk", got, blobsBefore)
	}

	// Crash and reboot on a healthy filesystem.
	ts1.Close()
	cancel1()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	srv2 := mustNew(t, ctx2, Options{Workers: 1, MaxConcurrentJobs: 1, Store: st2})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		cancel2()
		st2.Close()
	})
	waitReady(t, ts2.URL)

	// Recovery swept exactly the orphans, once.
	_, stats := getJSON(t, ts2.URL+"/stats")
	rec := stats["recovery"].(map[string]any)
	if got := int(rec["orphan_blobs_swept"].(float64)); got != blobsBefore {
		t.Fatalf("orphan_blobs_swept=%d, want %d", got, blobsBefore)
	}
	if got, _ := countBlobs(st2); got != 0 {
		t.Fatalf("blobs after recovery: %d, want 0", got)
	}
	// The evicted jobs stay gone; the dataset and new work are unharmed.
	for _, id := range []string{id1, id2} {
		if code, _ := getJSON(t, ts2.URL+"/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("job %s resurrected by recovery: code=%d", id, code)
		}
	}
	if code, _ := getJSON(t, ts2.URL+"/datasets/"+ref); code != http.StatusOK {
		t.Fatalf("dataset after recovery: code=%d, want 200", code)
	}
	id3 := gcSubmit(t, ts2.URL, ref, 4, 1)
	if code, _ := getJSON(t, ts2.URL+"/jobs/"+id3+"/result"); code != http.StatusOK {
		t.Fatalf("post-recovery job result: code=%d, want 200", code)
	}

	// A third boot finds nothing to sweep — the recovery was idempotent.
	ts2.Close()
	cancel2()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx3, cancel3 := context.WithCancel(context.Background())
	srv3 := mustNew(t, ctx3, Options{Workers: 1, Store: st3})
	ts3 := httptest.NewServer(srv3.Handler())
	t.Cleanup(func() {
		ts3.Close()
		cancel3()
		st3.Close()
	})
	waitReady(t, ts3.URL)
	_, stats3 := getJSON(t, ts3.URL+"/stats")
	if got := int(stats3["recovery"].(map[string]any)["orphan_blobs_swept"].(float64)); got != 0 {
		t.Fatalf("third boot swept %d orphans, want 0 (double-delete)", got)
	}
}
