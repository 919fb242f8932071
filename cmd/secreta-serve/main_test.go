package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secreta/internal/server"
	"secreta/internal/store"
)

// TestRunServesAndShutsDown boots the real server loop on an ephemeral
// port, checks liveness, and verifies context cancellation shuts it down.
func TestRunServesAndShutsDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, nil, server.Options{Workers: 2}, "", store.Options{}) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never came up: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
}

// bootRun starts run() with a data dir on an ephemeral port and waits for
// readiness. It returns the base URL and a shutdown func that mimics
// SIGTERM (context cancellation) and waits for run to return.
func bootRun(t *testing.T, dataDir string) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, nil, server.Options{Workers: 2}, dataDir, store.Options{}) }()
	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body, code := getBody(t, base+"/healthz")
		if code == http.StatusOK && bytes.Contains(body, []byte(`"ready": true`)) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after shutdown", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down within 15s")
		}
	}
	return base, stop
}

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

// TestRestartAcrossRuns is the process-level restart e2e: upload a
// dataset, complete a job, SIGTERM the serve loop, boot a fresh one on
// the same -data-dir, and expect the dataset and the result to be served
// from disk.
func TestRestartAcrossRuns(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "state")
	base, stop := bootRun(t, dataDir)

	dsJSON, err := os.ReadFile(filepath.Join("testdata", "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/datasets", "application/json", bytes.NewReader(dsJSON))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Ref string `json:"dataset_ref"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || up.Ref == "" {
		t.Fatalf("upload: %d ref=%q", resp.StatusCode, up.Ref)
	}

	reqBody, err := json.Marshal(map[string]any{
		"dataset_ref": up.Ref,
		"config":      map[string]any{"algo": "cluster", "k": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/anonymize", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Job == "" {
		t.Fatalf("submit: %d job=%q", resp.StatusCode, sub.Job)
	}
	var before []byte
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body, code := getBody(t, base+"/jobs/"+sub.Job+"/result")
		if code == http.StatusOK {
			before = body
			break
		}
		if code == http.StatusUnprocessableEntity || code == http.StatusGone {
			t.Fatalf("job failed: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if before == nil {
		t.Fatal("job never finished")
	}

	stop() // SIGTERM

	base2, stop2 := bootRun(t, dataDir)
	defer stop2()
	if body, code := getBody(t, base2+"/datasets/"+up.Ref); code != http.StatusOK {
		t.Fatalf("dataset after restart: %d %s", code, body)
	}
	after, code := getBody(t, base2+"/jobs/"+sub.Job+"/result")
	if code != http.StatusOK {
		t.Fatalf("result after restart: %d %s", code, after)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("result changed across process restart")
	}
	// Identical resubmission: answered from the persisted cache.
	resp, err = http.Post(base2+"/anonymize", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body, code := getBody(t, base2+"/jobs/"+sub2.Job+"/result")
		if code == http.StatusOK {
			if !bytes.Contains(body, []byte(`"cache_hit": true`)) {
				t.Fatalf("resubmission recomputed: %s", body)
			}
			return
		}
		if code == http.StatusUnprocessableEntity || code == http.StatusGone {
			t.Fatalf("resubmitted job failed: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("resubmitted job never finished")
}

// TestFlagsDocumented is the docs gate for the command line: every
// secreta-serve flag must appear, as `-name` in backticks, in the API
// reference or the operations runbook. The backticks keep incidental
// hyphenated prose from passing for an undocumented flag.
func TestFlagsDocumented(t *testing.T) {
	var docs []string
	for _, name := range []string{"API.md", "OPERATIONS.md"} {
		doc, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(doc))
	}
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		n++
		quoted := "`-" + f.Name + "`"
		if !strings.Contains(docs[0], quoted) && !strings.Contains(docs[1], quoted) {
			t.Errorf("flag -%s is not documented: want %s in docs/API.md or docs/OPERATIONS.md", f.Name, quoted)
		}
	})
	if n == 0 {
		t.Fatal("secreta-serve registers no flags")
	}
}
