package server

import (
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"secreta/internal/faultfs"
)

// TestDegradedModeProbeRearms is the degraded-mode round trip on one
// process, no restart: a permanent journal fault latches read-only mode
// (writes 503, reads and health alive, secreta_degraded=1), and once the
// disk recovers the background probe re-arms writes on its own.
func TestDegradedModeProbeRearms(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, _ := faultServer(t, dir, ffs, Options{Workers: 2, DegradedProbeInterval: 2 * time.Millisecond})

	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)

	// The disk breaks: every WAL append and every recovery probe fails.
	ffs.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: syscall.EIO, Count: -1})
	ffs.Arm(faultfs.Rule{Op: faultfs.OpRename, Path: ".probe", Err: syscall.EIO, Count: -1})

	// This submission's journal append fails and latches degraded mode.
	resp, _ := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitDegraded(t, ts.URL, true)

	// Writes are rejected; reads and observability keep answering.
	resp, errBody := postJSON(t, ts.URL+"/anonymize", map[string]any{"dataset_ref": ref})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if errBody["degraded"] != true {
		t.Fatalf("degraded 503 body: %v", errBody)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs"); code != http.StatusOK {
		t.Fatalf("degraded GET /jobs: %d, want 200", code)
	}
	code, stats := getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("degraded GET /stats: %d", code)
	}
	if active, _ := dig(stats, "degraded", "active").(bool); !active {
		t.Fatalf("stats degraded block: %v", stats["degraded"])
	}
	if !scrapeContains(t, ts.URL, "secreta_degraded 1") {
		t.Fatal("metrics missing secreta_degraded 1 while degraded")
	}

	// The disk recovers; the probe loop must notice and re-arm writes
	// without a restart.
	ffs.Clear()
	waitDegraded(t, ts.URL, false)
	if !scrapeContains(t, ts.URL, "secreta_degraded 0") {
		t.Fatal("metrics still report secreta_degraded 1 after recovery")
	}

	// Full write path is live again: a fresh job runs to done.
	resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 3},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery: %d", resp.StatusCode)
	}
	if st := pollDone(t, ts.URL, sub["job"].(string)); st != StatusDone {
		t.Fatalf("job after recovery ended %s", st)
	}
}

// TestDegradedRefusesDelete: a DELETE is a write. While degraded, a
// finished job's DELETE must answer 503 rather than drop the job from
// memory with a removal the journal never recorded (which a restart
// would undo), and the job must still be there after a restart.
func TestDegradedRefusesDelete(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaultFS(faultfs.OS, 1)
	ts, crash := faultServer(t, dir, ffs, Options{Workers: 2})

	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)
	resp, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := sub["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job ended %s", st)
	}

	ffs.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: syscall.EIO, Count: -1})
	ffs.Arm(faultfs.Rule{Op: faultfs.OpRename, Path: ".probe", Err: syscall.EIO, Count: -1})
	if resp, _ := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 3},
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("latching submit: %d", resp.StatusCode)
	}
	waitDegraded(t, ts.URL, true)
	waitAllTerminal(t, ts.URL)

	code, body = httpDelete(t, ts.URL+"/jobs/"+id)
	if code != http.StatusServiceUnavailable || body["degraded"] != true {
		t.Fatalf("degraded DELETE: %d %v, want a degraded 503", code, body)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs/"+id); code != http.StatusOK {
		t.Fatalf("job after refused DELETE: %d, want 200", code)
	}

	crash()
	ts2, _ := faultServer(t, dir, faultfs.OS, Options{Workers: 2})
	code, view := getJSON(t, ts2.URL+"/jobs/"+id)
	if code != http.StatusOK || view["status"] != string(StatusDone) {
		t.Fatalf("job after restart: %d %v, want done", code, view)
	}
}

// waitDegraded polls /healthz until the degraded flag matches want.
func waitDegraded(t *testing.T, base string, want bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, health := getJSON(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		if (health["status"] == "degraded") == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never reached degraded=%v", want)
}

// scrapeContains greps one sample line out of /metrics.
func scrapeContains(t *testing.T, base, line string) bool {
	t.Helper()
	code, raw := getRaw(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if l == line {
			return true
		}
	}
	return false
}
