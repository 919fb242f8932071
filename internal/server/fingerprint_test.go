package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"secreta/internal/dataset"
)

// TestRefJobsLeaveDatasetUnmutated runs every job kind, over relational,
// transaction and RT algorithms, on one dataset_ref and then re-hashes the
// registry's copy. A job trusts its ref as the dataset's fingerprint (the
// result-cache key, the trace and log field) instead of re-hashing, which
// holds only while no job mutates a registry dataset in place.
func TestRefJobsLeaveDatasetUnmutated(t *testing.T) {
	srv := mustNew(t, context.Background(), Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: code=%d body=%v", code, body)
	}
	ref := body["dataset_ref"].(string)

	var jobs []string
	submit := func(path string, req map[string]any) {
		t.Helper()
		req["dataset_ref"] = ref
		resp, sub := postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: code=%d body=%v", path, resp.StatusCode, sub)
		}
		jobs = append(jobs, sub["job"].(string))
	}
	for _, algo := range []string{"cluster", "incognito", "apriori", "vpa", "cluster+apriori/rmerger", "topdown+vpa/tmerger", "bottomup+lra/rtmerger"} {
		cfg := map[string]any{"algo": algo, "k": 3, "m": 2, "delta": 0.5}
		submit("/anonymize", map[string]any{"config": cfg})
		submit("/evaluate", map[string]any{"config": cfg})
	}
	submit("/evaluate", map[string]any{
		"config": map[string]any{"algo": "cluster+apriori/rmerger", "k": 2, "m": 2, "delta": 0.5},
		"sweep":  map[string]any{"param": "k", "start": 2, "end": 4, "step": 2},
	})
	submit("/compare", map[string]any{
		"configs": []map[string]any{{"algo": "topdown", "k": 2}, {"algo": "cluster+apriori/rmerger", "k": 2, "m": 2, "delta": 0.5}},
		"sweep":   map[string]any{"param": "k", "start": 2, "end": 4, "step": 2},
	})
	for _, id := range jobs {
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			_, res := getJSON(t, ts.URL+"/jobs/"+id)
			t.Fatalf("job %s ended %s: %v", id, st, res)
		}
	}

	ds, release, err := srv.registry.Pin(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := ds.Fingerprint(); got != ref {
		t.Fatalf("after %d jobs the registry dataset fingerprints as %s, its ref is %s: a job mutated it in place", len(jobs), got, ref)
	}
}

// TestAnonymizeFingerprintsOnce counts dataset fingerprints per job: a
// dataset_ref job reuses the ref, and an inline /anonymize job hashes its
// decoded dataset once, which the trace span, the result-cache key and the
// phase log all share, whether the job misses or hits the cache. Inline
// /evaluate and /compare jobs run uncached, so nothing keys on a hash and
// they compute none.
func TestAnonymizeFingerprintsOnce(t *testing.T) {
	ts := newTestServer(t)
	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: code=%d body=%v", code, body)
	}
	ref := body["dataset_ref"].(string)
	config := func(k int) map[string]any {
		return map[string]any{"algo": "cluster+apriori/rmerger", "k": k, "m": 2, "delta": 0.5}
	}
	sweep := map[string]any{"param": "k", "start": 2, "end": 4, "step": 2}
	inline := json.RawMessage(raw)

	for _, tc := range []struct {
		name, path string
		req        map[string]any
		want       uint64
	}{
		{"ref miss", "/anonymize", map[string]any{"dataset_ref": ref, "config": config(2)}, 0},
		{"ref hit", "/anonymize", map[string]any{"dataset_ref": ref, "config": config(2)}, 0},
		{"inline miss", "/anonymize", map[string]any{"dataset": inline, "config": config(3)}, 1},
		{"inline hit", "/anonymize", map[string]any{"dataset": inline, "config": config(3)}, 1},
		{"inline evaluate", "/evaluate", map[string]any{"dataset": inline, "config": config(3)}, 0},
		{"inline evaluate sweep", "/evaluate", map[string]any{"dataset": inline, "config": config(2), "sweep": sweep}, 0},
		{"inline compare", "/compare", map[string]any{"dataset": inline, "configs": []any{config(2), map[string]any{"algo": "topdown", "k": 2}}, "sweep": sweep}, 0},
	} {
		before := dataset.FingerprintCount()
		resp, sub := postJSON(t, ts.URL+tc.path, tc.req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: code=%d body=%v", tc.name, resp.StatusCode, sub)
		}
		if st := pollDone(t, ts.URL, sub["job"].(string)); st != StatusDone {
			t.Fatalf("%s: job ended %s", tc.name, st)
		}
		if got := dataset.FingerprintCount() - before; got != tc.want {
			t.Errorf("%s: job computed %d fingerprints, want %d", tc.name, got, tc.want)
		}
	}
}
