package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/store"
)

// smallDatasetJSON builds a distinct tiny RT-dataset (tag varies the
// content fingerprint).
func smallDatasetJSON(t *testing.T, tag string) json.RawMessage {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{{Name: "grp", Kind: dataset.Categorical}}, "items")
	for r := 0; r < 40; r++ {
		rec := dataset.Record{
			Values: []string{fmt.Sprintf("%s%d", tag, r%4)},
			Items:  []string{"a", "b"},
		}
		if err := ds.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLazyPinBoundsResidencyByConcurrency is the lazy-pin satellite's
// acceptance test: a deep queue of jobs referencing non-resident datasets
// must NOT pull every referenced dataset into pinned RAM at submission.
// With -max-concurrent=1 and a 1-entry RAM cache, the queue holds index
// reservations only (deletes still answer 409), residency stays bounded
// by the cache cap, and every job still completes because its bytes load
// from disk at job start.
func TestLazyPinBoundsResidencyByConcurrency(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := mustNew(t, ctx, Options{
		Workers:             1,
		MaxConcurrentJobs:   1,
		RegistryMaxDatasets: 1,
		Store:               st,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		cancel()
		ts.Close()
		st.Close()
	})
	waitReady(t, ts.URL)

	const jobs = 6
	refs := make([]string, jobs)
	for i := range refs {
		code, body := uploadDataset(t, ts.URL, smallDatasetJSON(t, fmt.Sprintf("t%d", i)))
		if code != http.StatusCreated {
			t.Fatalf("upload %d: code=%d body=%v", i, code, body)
		}
		refs[i] = body["dataset_ref"].(string)
	}
	// The 1-entry RAM cache means at most the last upload is resident;
	// everything else is disk-only before any job runs.
	if got := residentCount(t, ts.URL); got > 1 {
		t.Fatalf("%d datasets resident before jobs, want <= 1", got)
	}

	// Occupy the single admission slot directly, so the six referencing
	// jobs below are deterministically still queued when the
	// delete-conflict and residency checks run — any wall-clock slot
	// holder (a "slow" job) races the checks on a fast machine.
	releaseSlot := holdSlot(t, srv, "")

	ids := make([]string, jobs)
	for i := range ids {
		_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
			"dataset_ref": refs[i],
			"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
		})
		job, ok := sub["job"].(string)
		if !ok {
			t.Fatalf("submission %d rejected: %v", i, sub)
		}
		ids[i] = job
	}
	// Every referenced dataset is reserved — deletes conflict — even
	// though the queue's datasets are not resident. The slot is held by
	// the test, so every one of the six is still queued here.
	conflicts := 0
	for _, ref := range refs {
		if code, _ := httpDelete(t, ts.URL+"/datasets/"+ref); code == http.StatusConflict {
			conflicts++
		}
	}
	if conflicts != jobs {
		t.Fatalf("only %d/%d deletes conflicted; reservations not held", conflicts, jobs)
	}
	// Residency while the queue waits stays bounded by the RAM cap plus
	// the running job — never the whole queue.
	if got := residentCount(t, ts.URL); got > 2 {
		t.Fatalf("%d datasets resident mid-queue, want <= 2 (cache cap + running job)", got)
	}
	// Release the slot and let the queue drain.
	releaseSlot()
	for i, id := range ids {
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			t.Fatalf("job %d ended %s, want done", i, st)
		}
	}
}

// residentCount counts datasets with a decoded in-RAM copy.
func residentCount(t *testing.T, base string) int {
	t.Helper()
	code, body := getJSON(t, base+"/datasets")
	if code != http.StatusOK {
		t.Fatalf("list datasets: code=%d", code)
	}
	n := 0
	for _, v := range body["datasets"].([]any) {
		if v.(map[string]any)["resident"].(bool) {
			n++
		}
	}
	return n
}
