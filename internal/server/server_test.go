package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/export"
	"secreta/internal/gen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mustNew builds a Server or fails the test (New only errors when a
// durable store's dataset index cannot be read).
func mustNew(t *testing.T, ctx context.Context, opts Options) *Server {
	t.Helper()
	s, err := New(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mustNew(t, context.Background(), Options{Workers: 4}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// patientsJSON loads the shared 20-patient sample and returns it in the
// dataset JSON format requests embed.
func patientsJSON(t *testing.T) (json.RawMessage, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.LoadFile(filepath.Join("..", "..", "testdata", "patients.csv"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ds
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeMap(t, resp)
}

func decodeMap(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, decodeMap(t, resp)
}

// pollDone polls the job until it reaches a terminal status.
func pollDone(t *testing.T, base, id string) Status {
	return pollDoneWithin(t, base, id, 30*time.Second)
}

// pollDoneWithin is pollDone with an explicit budget, for jobs whose
// legitimate wall time approaches the default (the 260k-record stream
// job under -race on a loaded 1-CPU box crosses 30s).
func pollDoneWithin(t *testing.T, base, id string, budget time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		_, body := getJSON(t, base+"/jobs/"+id)
		st := Status(body["status"].(string))
		if st.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in %v", id, budget)
	return ""
}

// normalize strips the wall-clock fields (runtimes, phase timings,
// timestamps) from a decoded JSON tree so results can be golden-compared.
func normalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range []string{"runtime_s", "duration_s", "phases", "submitted_at", "started_at", "finished_at"} {
			delete(x, k)
		}
		for k, val := range x {
			x[k] = normalize(val)
		}
	case []any:
		for i, val := range x {
			x[i] = normalize(val)
		}
	}
	return v
}

func canonical(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("canonicalizing: %v\n%s", err, raw)
	}
	out, err := json.MarshalIndent(normalize(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestAnonymizeJobGolden walks the happy path end to end: submit an
// anonymize job, poll to completion, fetch the result, and golden-compare
// the (time-normalized) JSON payload.
func TestAnonymizeJobGolden(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	resp, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster+apriori/rmerger", K: 4, M: 2, Delta: 0.5},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, body)
	}
	id := body["job"].(string)
	if st := Status(body["status"].(string)); st.Terminal() {
		t.Fatalf("freshly submitted job already %s", st)
	}
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job finished as %s", st)
	}

	res, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", res.StatusCode)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	got := canonical(t, raw.Bytes())

	goldenPath := filepath.Join("testdata", "anonymize_patients.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("anonymize result diverges from golden file %s:\ngot:\n%s", goldenPath, got)
	}
}

// TestEvaluateMatchesDirectEngineRun pins the acceptance criterion: the
// service's /evaluate result is identical to what the equivalent
// `secreta evaluate -results` invocation produces (same engine run, same
// export encoding), modulo wall-clock fields.
func TestEvaluateMatchesDirectEngineRun(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, ds := patientsJSON(t)
	req := AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster+apriori/rmerger", K: 4, M: 2, Delta: 0.5, Fanout: 4},
	}
	resp, body := postJSON(t, ts.URL+"/evaluate", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, body)
	}
	id := body["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job finished as %s", st)
	}
	res, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(res.Body)
	res.Body.Close()

	// The CLI path: build the same config (auto-generated hierarchies,
	// fanout 4) and export through the same encoder.
	cfg, err := engine.ConfigFromSpec("cluster+apriori/rmerger")
	if err != nil {
		t.Fatal(err)
	}
	cfg.K, cfg.M, cfg.Delta = 4, 2, 0.5
	if cfg.Hierarchies, err = gen.Hierarchies(ds, 4); err != nil {
		t.Fatal(err)
	}
	if cfg.ItemHierarchy, err = gen.ItemHierarchy(ds, 4); err != nil {
		t.Fatal(err)
	}
	direct := engine.Run(ds, cfg)
	if direct.Err != nil {
		t.Fatal(direct.Err)
	}
	var directBuf bytes.Buffer
	if err := export.ResultsJSON(&directBuf, []*engine.Result{direct}); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, []byte(fmt.Sprintf(`{"results": %s}`, directBuf.Bytes())))
	got := canonical(t, raw.Bytes())
	if !bytes.Equal(got, want) {
		t.Errorf("service result diverges from direct engine run:\nservice:\n%s\ndirect:\n%s", got, want)
	}
}

func TestCompareJob(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	resp, body := postJSON(t, ts.URL+"/compare", CompareRequest{
		Dataset: dsJSON,
		Configs: []ConfigRequest{
			{Algo: "cluster", K: 2},
			{Algo: "incognito", K: 2},
		},
		Sweep: SweepRequest{Param: "k", Start: 2, End: 4, Step: 2},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, body)
	}
	id := body["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job finished as %s", st)
	}
	code, result := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	series := result["series"].([]any)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, s := range series {
		points := s.(map[string]any)["points"].([]any)
		if len(points) != 2 {
			t.Fatalf("points = %d, want 2 (k=2 and k=4)", len(points))
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"missing dataset", "/anonymize", AnonymizeRequest{Config: ConfigRequest{Algo: "cluster", K: 2}}},
		{"unknown algorithm", "/anonymize", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "does-not-exist", K: 2}}},
		{"typo in RT spec", "/anonymize", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluser+apriori", K: 2}}},
		{"non-positive k", "/anonymize", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluster"}}},
		{"bad sweep", "/evaluate", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluster", K: 2}, Sweep: &SweepRequest{Param: "bogus", Start: 1, End: 2, Step: 1}}},
		{"no configs", "/compare", CompareRequest{Dataset: dsJSON, Sweep: SweepRequest{Param: "k", Start: 2, End: 4, Step: 2}}},
		{"bad workload", "/anonymize", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluster", K: 2}, Workload: []string{"no equals sign"}}},
		{"sweep on anonymize", "/anonymize", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluster", K: 2}, Sweep: &SweepRequest{Param: "k", Start: 2, End: 4, Step: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%v)", resp.StatusCode, body)
			}
			if body["error"] == "" {
				t.Fatal("400 without error message")
			}
		})
	}

	// A present-but-invalid dataset is decoded inside the job (heavy work
	// stays behind admission control), so it surfaces as a failed job.
	t.Run("invalid dataset fails the job", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{
			Dataset: json.RawMessage(`{"bogus": true}`),
			Config:  ConfigRequest{Algo: "cluster", K: 2},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, want 202 (%v)", resp.StatusCode, body)
		}
		id := body["job"].(string)
		if st := pollDone(t, ts.URL, id); st != StatusFailed {
			t.Fatalf("job finished as %s, want %s", st, StatusFailed)
		}
		code, res := getJSON(t, ts.URL+"/jobs/"+id+"/result")
		if code != http.StatusUnprocessableEntity || res["error"] == "" {
			t.Fatalf("failed job result: status %d body %v", code, res)
		}
	})

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/anonymize", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		small := httptest.NewServer(mustNew(t, context.Background(), Options{Workers: 1, MaxBodyBytes: 1024}).Handler())
		defer small.Close()
		// A job submission and a dataset upload read their bodies
		// differently but answer the same 413.
		for _, path := range []string{"/anonymize", "/datasets"} {
			resp, err := http.Post(small.URL+path, "application/json",
				bytes.NewReader(append(dsJSON, bytes.Repeat([]byte(" "), 2048)...)))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := "{\n  \"error\": \"request body exceeds 1024 bytes\"\n}\n"
			if resp.StatusCode != http.StatusRequestEntityTooLarge || string(body) != want {
				t.Fatalf("POST %s: status %d body %q, want 413 %q", path, resp.StatusCode, body, want)
			}
		}
	})
	t.Run("unknown job", func(t *testing.T) {
		code, _ := getJSON(t, ts.URL+"/jobs/j-999999")
		if code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", code)
		}
	})
}

// TestCancelJob submits a deliberately heavy comparison and cancels it:
// the job must reach StatusCancelled and its result endpoint must report
// 410 Gone.
func TestCancelJob(t *testing.T) {
	ts := newTestServer(t)
	ds := gen.Census(gen.Config{Records: 1500, Items: 12, Seed: 7})
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/compare", CompareRequest{
		Dataset: buf.Bytes(),
		Configs: []ConfigRequest{
			{Algo: "cluster+apriori/rmerger", M: 2, Delta: 0.3, K: 2},
			{Algo: "cluster+apriori/tmerger", M: 2, Delta: 0.3, K: 2},
		},
		Sweep: SweepRequest{Param: "k", Start: 2, End: 20, Step: 1},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, body)
	}
	id := body["job"].(string)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", delResp.StatusCode)
	}
	if st := pollDone(t, ts.URL, id); st != StatusCancelled {
		t.Fatalf("job finished as %s, want %s", st, StatusCancelled)
	}
	code, _ := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusGone {
		t.Fatalf("result of cancelled job: status %d, want 410", code)
	}
}

// TestServerCacheHit submits the same anonymize request twice and asserts
// the second is served by the shared result cache.
func TestServerCacheHit(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	req := AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster", K: 3},
	}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/anonymize", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		id := body["job"].(string)
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			t.Fatalf("submit %d finished as %s", i, st)
		}
		// The payload must disclose cache service, so a copied runtime_s
		// is never mistaken for a measurement.
		code, result := getJSON(t, ts.URL+"/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("submit %d result: status %d", i, code)
		}
		if hit := result["cache_hit"].(bool); hit != (i == 1) {
			t.Fatalf("submit %d: cache_hit = %v, want %v", i, hit, i == 1)
		}
	}
	code, stats := getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	cache := stats["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits < 1 {
		t.Fatalf("cache hits = %v after identical resubmission, want >= 1 (stats: %v)", hits, stats)
	}
	jobs := stats["jobs"].(map[string]any)
	if done := jobs[string(StatusDone)].(float64); done != 2 {
		t.Fatalf("done jobs = %v, want 2", done)
	}
}

// TestJobDeletionAndEviction covers retention: DELETE on a finished job
// removes its record, and the store evicts the oldest finished jobs past
// MaxJobs.
func TestJobDeletionAndEviction(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, context.Background(), Options{Workers: 2, MaxJobs: 2}).Handler())
	t.Cleanup(ts.Close)
	dsJSON, _ := patientsJSON(t)
	submit := func() string {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{
			Dataset: dsJSON,
			Config:  ConfigRequest{Algo: "cluster", K: 3},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		id := body["job"].(string)
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			t.Fatalf("job %s finished as %s", id, st)
		}
		return id
	}

	first := submit()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+first, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeMap(t, resp)
	if resp.StatusCode != http.StatusOK || body["deleted"] != true {
		t.Fatalf("delete finished job: status %d body %v", resp.StatusCode, body)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs/"+first); code != http.StatusNotFound {
		t.Fatalf("deleted job still reachable: status %d", code)
	}

	// Three more finished jobs against MaxJobs=2: the oldest must be evicted.
	ids := []string{submit(), submit(), submit()}
	code, list := getJSON(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("job list: status %d", code)
	}
	kept := list["jobs"].([]any)
	if len(kept) > 2 {
		t.Fatalf("store retains %d jobs, want <= 2 (MaxJobs)", len(kept))
	}
	if code, _ := getJSON(t, ts.URL+"/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job %s survived eviction: status %d", ids[0], code)
	}
}

// TestJobListAndPendingResult covers the polling surface: list shows the
// job, and the result endpoint answers 202 while work is in flight.
func TestJobListAndPendingResult(t *testing.T) {
	ts := newTestServer(t)
	ds := gen.Census(gen.Config{Records: 800, Items: 10, Seed: 13})
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/evaluate", AnonymizeRequest{
		Dataset: buf.Bytes(),
		Config:  ConfigRequest{Algo: "cluster+apriori/rmerger", K: 3, M: 2, Delta: 0.3},
		Sweep:   &SweepRequest{Param: "k", Start: 2, End: 12, Step: 1},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := body["job"].(string)
	code, pending := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("pending result: status %d (%v)", code, pending)
	}
	code, list := getJSON(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("job list: status %d", code)
	}
	found := false
	for _, j := range list["jobs"].([]any) {
		if j.(map[string]any)["job"] == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("job %s missing from list %v", id, list)
	}
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job finished as %s", st)
	}
}
