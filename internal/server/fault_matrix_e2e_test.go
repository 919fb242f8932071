package server

import (
	"context"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"secreta/internal/faultfs"
	"secreta/internal/store"
)

// faultServer boots a durable server whose store runs over fsys and
// returns the test server plus a crash func: cancel + close HTTP but do
// NOT close the store — the next Open must replay the journal exactly as
// after a process kill.
func faultServer(t *testing.T, dir string, fsys faultfs.FS, opts Options) (*httptest.Server, func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	ctx, cancel := context.WithCancel(context.Background())
	srv := mustNew(t, ctx, opts)
	ts := httptest.NewServer(srv.Handler())
	waitReady(t, ts.URL)
	var crashed bool
	crash := func() {
		if crashed {
			return
		}
		crashed = true
		cancel()
		ts.Close()
	}
	t.Cleanup(crash)
	return ts, crash
}

// runFaultScenario drives the canonical lifecycle — upload, submit an
// anonymize job, wait for a terminal state — arming, when nth > 0, a
// one-shot EIO on the nth store operation after the upload. It returns
// the terminal status, the job ID, and how many store operations the
// lifecycle performed (the matrix size, measured on the fault-free
// baseline).
func runFaultScenario(t *testing.T, ts *httptest.Server, ffs *faultfs.FaultFS, nth int) (Status, string, int) {
	t.Helper()
	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	// 200 = already registered: reboot convergence re-uploads the same
	// content-addressed dataset.
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)
	mark := len(ffs.Ledger())
	if nth > 0 {
		// Rule matches count from arming, so Nth is relative to here.
		// Count 0 = fire exactly once: one fault at one lifecycle point.
		ffs.Arm(faultfs.Rule{Op: faultfs.OpAny, Nth: nth, Err: syscall.EIO, Count: 0})
	}
	resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, sub)
	}
	id := sub["job"].(string)
	status := pollDone(t, ts.URL, id)
	return status, id, len(ffs.Ledger()) - mark
}

// listTempFiles walks the data dir for ".tmp-*" files.
func listTempFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			out = append(out, path)
		}
		return nil
	})
	return out
}

// waitNoTempFiles polls until the data dir holds no ".tmp-*" file — the
// quiescent state once every atomic write has published or cleaned up.
func waitNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last []string
	for time.Now().Before(deadline) {
		if last = listTempFiles(t, dir); len(last) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("temp files never settled: %v", last)
}

// waitAllTerminal polls until every job the server lists is terminal —
// re-queued crash recovery work included.
func waitAllTerminal(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := getJSON(t, base+"/jobs")
		settled := true
		if jobs, ok := body["jobs"].([]any); ok {
			for _, j := range jobs {
				jm, _ := j.(map[string]any)
				st, _ := jm["status"].(string)
				if !Status(st).Terminal() {
					settled = false
					break
				}
			}
		}
		if settled {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs never settled after reboot")
}

// TestFaultMatrix injects one permanent I/O fault at every store
// operation of the submit → execute → persist → done lifecycle and
// asserts the tri-state invariant after each: the server is either
// degraded (writes 503, reads alive), or the job is done with a readable
// result, or the job failed cleanly. Then it crashes the process
// (journal NOT closed), reboots on a healthy disk, and asserts
// convergence: clean replay, no torn tail, no temp orphans, and an
// identical re-submission that completes with a readable result.
func TestFaultMatrix(t *testing.T) {
	// The probe loop is parked (tested separately): a probe racing the
	// crash would write into the data dir while the next boot replays it —
	// a window no real kill has, because a dead process stops writing.
	opts := Options{Workers: 2, DegradedProbeInterval: time.Hour}

	// Baseline: enumerate the lifecycle's store operations fault-free.
	baseFS := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, _ := faultServer(t, t.TempDir(), baseFS, opts)
	status, _, total := runFaultScenario(t, ts, baseFS, 0)
	if status != StatusDone {
		t.Fatalf("baseline job ended %s", status)
	}
	if total == 0 {
		t.Fatal("baseline lifecycle performed no store operations; the seam is not wired")
	}
	t.Logf("fault matrix: %d injection points", total)

	for nth := 1; nth <= total; nth++ {
		t.Run("op"+strconv.Itoa(nth), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.NewFaultFS(faultfs.OS, 1)
			ts, crash := faultServer(t, dir, ffs, opts)
			status, id, _ := runFaultScenario(t, ts, ffs, nth)

			_, health := getJSON(t, ts.URL+"/healthz")
			degraded := health["status"] == "degraded"
			switch {
			case degraded:
				// Degraded read-only: writes must 503 with Retry-After,
				// reads must keep answering.
				resp, _ := postJSON(t, ts.URL+"/anonymize", map[string]any{"dataset_ref": "x"})
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("degraded POST: %d, want 503", resp.StatusCode)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("degraded 503 without Retry-After")
				}
				if code, _ := getJSON(t, ts.URL+"/jobs"); code != http.StatusOK {
					t.Errorf("degraded GET /jobs: %d, want 200", code)
				}
				d, ok := health["degraded"].(map[string]any)
				if !ok || d["reason"] == "" {
					t.Errorf("degraded /healthz payload missing reason: %v", health)
				}
			case status == StatusDone:
				// Not degraded: a done job must answer its result. One
				// retry, in case the injected fault landed in this very
				// read path (the rule is one-shot).
				code, _ := getRaw(t, ts.URL+"/jobs/"+id+"/result")
				if code != http.StatusOK {
					if code, _ = getRaw(t, ts.URL+"/jobs/"+id+"/result"); code != http.StatusOK {
						t.Errorf("done job's result: %d, want 200", code)
					}
				}
			case !status.Terminal():
				t.Errorf("job ended in non-terminal %s", status)
			}
			// Any other terminal state (failed) is the clean-failure arm.

			// Crash without closing the store, reboot on a healthy disk.
			// Debris present at boot must be swept; temp files appearing
			// after are live writes of re-queued recovery work, so only
			// the pre-boot set is asserted gone.
			crash()
			debris := listTempFiles(t, dir)
			ts2, _ := faultServer(t, dir, faultfs.OS, opts)
			for _, p := range debris {
				if _, err := os.Stat(p); err == nil {
					t.Errorf("orphaned temp file survived the boot sweep: %s", p)
				}
			}
			waitAllTerminal(t, ts2.URL)
			code, stats := getJSON(t, ts2.URL+"/stats")
			if code != http.StatusOK {
				t.Fatalf("stats after reboot: %d", code)
			}
			if torn, _ := dig(stats, "store", "journal", "replay", "torn_tail").(bool); torn {
				t.Error("reboot replay found a torn WAL tail; the append rollback leaked a frame")
			}
			if deg, _ := dig(stats, "degraded", "active").(bool); deg {
				t.Error("fresh boot on a healthy disk must not be degraded")
			}

			// Convergence: the same submission completes and answers.
			st2, id2, _ := runFaultScenario(t, ts2, faultfs.NewFaultFS(faultfs.OS, 1), 0)
			if st2 != StatusDone {
				t.Fatalf("re-submission after reboot ended %s", st2)
			}
			if code, _ := getRaw(t, ts2.URL+"/jobs/"+id2+"/result"); code != http.StatusOK {
				t.Fatalf("re-submitted job's result: %d, want 200", code)
			}
			// Every atomic write settles: published or cleaned up, never
			// leaked.
			waitNoTempFiles(t, dir)
		})
	}
}

// dig walks nested JSON maps.
func dig(m map[string]any, keys ...string) any {
	var cur any = m
	for _, k := range keys {
		mm, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur = mm[k]
	}
	return cur
}
