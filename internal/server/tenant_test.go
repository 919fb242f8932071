package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"secreta/internal/dataset"
)

// ---- multi-tenant test helpers ----

// newTenantServer builds a server in multi-tenant mode over opts (which
// must not set Tenants itself) and serves it.
func newTenantServer(t *testing.T, opts Options, cfgs ...TenantConfig) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	opts.Tenants = cfgs
	srv := mustNew(t, ctx, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		cancel()
		ts.Close()
	})
	return srv, ts
}

// encodeTenantsFile renders cfgs in the -tenants-file format, the
// inverse of LoadTenantsFile.
func encodeTenantsFile(cfgs []TenantConfig) []byte {
	data, _ := json.MarshalIndent(tenantsFile{Tenants: cfgs}, "", "  ")
	return data
}

// authedDo sends one request with the given API key (via X-API-Key; ""
// sends no key) and returns the raw response. The caller owns the body.
func authedDo(t *testing.T, method, url, key string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// authedJSON is authedDo + JSON body marshalling + map decoding.
func authedJSON(t *testing.T, method, url, key string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var raw []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		raw = b
	}
	resp := authedDo(t, method, url, key, raw)
	return resp, decodeMap(t, resp)
}

// authedUpload posts raw dataset JSON under the given key and returns
// (code, dataset_ref, body).
func authedUpload(t *testing.T, base, key string, raw json.RawMessage) (int, string, map[string]any) {
	t.Helper()
	resp := authedDo(t, http.MethodPost, base+"/datasets", key, raw)
	body := decodeMap(t, resp)
	ref, _ := body["dataset_ref"].(string)
	return resp.StatusCode, ref, body
}

// submitAs submits an anonymize job under key and returns its job ID.
func submitAs(t *testing.T, base, key string, req any) string {
	t.Helper()
	resp, body := authedJSON(t, http.MethodPost, base+"/anonymize", key, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit as %q: code=%d body=%v", key, resp.StatusCode, body)
	}
	return body["job"].(string)
}

// pollDoneAs is pollDone with an API key.
func pollDoneAs(t *testing.T, base, key, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := authedJSON(t, http.MethodGet, base+"/jobs/"+id, key, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("polling job %s: code=%d body=%v", id, resp.StatusCode, body)
		}
		if st := Status(body["status"].(string)); st.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in 30s", id)
	return ""
}

// statsTenant fetches /stats and returns the named tenant's view block.
func statsTenant(t *testing.T, base, id string) map[string]any {
	t.Helper()
	code, body := getJSON(t, base+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: code=%d", code)
	}
	for _, v := range body["tenants"].([]any) {
		tv := v.(map[string]any)
		if tv["id"] == id {
			return tv
		}
	}
	t.Fatalf("tenant %q missing from /stats tenants block: %v", id, body["tenants"])
	return nil
}

// ---- config validation ----

func TestValidateTenants(t *testing.T) {
	good := TenantConfig{ID: "acme", Key: "k-acme"}
	cases := []struct {
		name string
		cfgs []TenantConfig
		ok   bool
	}{
		{"empty set", nil, false},
		{"one tenant", []TenantConfig{good}, true},
		{"two tenants", []TenantConfig{good, {ID: "beta", Key: "k-beta", Weight: 3}}, true},
		{"empty id", []TenantConfig{{ID: "", Key: "k"}}, false},
		{"id with space", []TenantConfig{{ID: "a b", Key: "k"}}, false},
		{"id with quote", []TenantConfig{{ID: `a"b`, Key: "k"}}, false},
		{"id leading dash", []TenantConfig{{ID: "-a", Key: "k"}}, false},
		{"duplicate id", []TenantConfig{good, {ID: "acme", Key: "k2"}}, false},
		{"empty key", []TenantConfig{{ID: "acme", Key: ""}}, false},
		{"key with whitespace", []TenantConfig{{ID: "acme", Key: "k ey"}}, false},
		{"duplicate key", []TenantConfig{good, {ID: "beta", Key: "k-acme"}}, false},
		{"negative weight", []TenantConfig{{ID: "acme", Key: "k", Weight: -1}}, false},
		{"negative rate", []TenantConfig{{ID: "acme", Key: "k", RatePerSec: -1}}, false},
		{"negative quota", []TenantConfig{{ID: "acme", Key: "k", MaxStoredBytes: -1}}, false},
	}
	for _, tc := range cases {
		if err := ValidateTenants(tc.cfgs); (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestLoadTenantsFile(t *testing.T) {
	if cfgs, err := LoadTenantsFile(""); err != nil || cfgs != nil {
		t.Fatalf("empty path: got %v, %v; want nil, nil", cfgs, err)
	}
	if _, err := LoadTenantsFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file: want error")
	}

	dir := t.TempDir()
	want := []TenantConfig{
		{ID: "acme", Key: "k-acme", Weight: 3, RatePerSec: 2, Burst: 5, MaxStoredBytes: 1 << 20, MaxConcurrentJobs: 2, MaxPendingJobs: 10},
		{ID: "beta", Key: "k-beta"},
	}
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, encodeTenantsFile(want), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Unknown fields are a config typo, not something to ignore silently.
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"tenants":[{"id":"a","key":"k","max_stored_byte":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenantsFile(typo); err == nil {
		t.Fatal("unknown field: want error")
	}

	invalid := filepath.Join(dir, "dup.json")
	if err := os.WriteFile(invalid, encodeTenantsFile([]TenantConfig{{ID: "a", Key: "k"}, {ID: "a", Key: "k2"}}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenantsFile(invalid); err == nil {
		t.Fatal("duplicate id: want validation error")
	}
}

// ---- auth gate ----

func TestTenantAuthGate(t *testing.T) {
	_, ts := newTenantServer(t, Options{Workers: 1},
		TenantConfig{ID: "acme", Key: "k-acme"})

	// No key and unknown key are both 401, indistinguishably.
	for _, key := range []string{"", "k-wrong"} {
		resp := authedDo(t, http.MethodGet, ts.URL+"/jobs", key, nil)
		body := decodeMap(t, resp)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: code=%d, want 401", key, resp.StatusCode)
		}
		if body["reason"] != "unauthorized" {
			t.Fatalf("key %q: reason=%v, want unauthorized", key, body["reason"])
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("key %q: missing WWW-Authenticate challenge", key)
		}
	}

	// Both header forms authenticate.
	if resp := authedDo(t, http.MethodGet, ts.URL+"/jobs", "k-acme", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key: code=%d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer k-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Bearer: code=%d, want 200", resp.StatusCode)
	}

	// Operator surfaces stay open: no key required even in tenant mode.
	for _, path := range []string{"/healthz", "/stats", "/metrics", "/dashboard", "/dashboard/data"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("open route %s: code=%d, want 200", path, r.StatusCode)
		}
	}
}

// TestSingleTenantModeUnchanged pins the auth-off contract: without a
// tenants file there is no key check, no rate-limit headers, and no
// tenant field on jobs — the single-tenant wire format is untouched.
func TestSingleTenantModeUnchanged(t *testing.T) {
	ts := newTestServer(t)
	resp := authedDo(t, http.MethodPost, ts.URL+"/datasets", "", smallDatasetJSON(t, "st"))
	body := decodeMap(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: code=%d body=%v", resp.StatusCode, body)
	}
	for _, h := range []string{"X-RateLimit-Limit", "X-RateLimit-Remaining", "X-RateLimit-Reset", "WWW-Authenticate"} {
		if v := resp.Header.Get(h); v != "" {
			t.Fatalf("single-tenant response leaked %s=%q", h, v)
		}
	}
	_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": body["dataset_ref"],
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
	})
	if _, has := sub["tenant"]; has {
		t.Fatalf("single-tenant job view has a tenant field: %v", sub)
	}
	// /stats has no tenants or gc blocks in single-tenant, memory-only mode.
	_, stats := getJSON(t, ts.URL+"/stats")
	if _, has := stats["tenants"]; has {
		t.Fatal("single-tenant /stats has a tenants block")
	}
	if _, has := stats["gc"]; has {
		t.Fatal("GC-less /stats has a gc block")
	}
}

// ---- rate limiting ----

// TestTenantRateLimitHeaders drives the token bucket on an injected
// clock: allowed POSTs carry X-RateLimit-*, the 429 adds Retry-After and
// the machine-readable reason, and advancing the clock refills tokens.
func TestTenantRateLimitHeaders(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	_, ts := newTenantServer(t, Options{Workers: 1, Now: clock},
		TenantConfig{ID: "acme", Key: "k-acme", RatePerSec: 1, Burst: 2},
		TenantConfig{ID: "free", Key: "k-free"})

	post := func() *http.Response {
		resp := authedDo(t, http.MethodPost, ts.URL+"/datasets", "k-acme", smallDatasetJSON(t, "rl"))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	// Burst of 2: two POSTs pass at the same instant, remaining 1 then 0.
	for i, wantRemaining := range []string{"1", "0"} {
		resp := post()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("POST %d rate limited inside burst", i)
		}
		if got := resp.Header.Get("X-RateLimit-Limit"); got != "2" {
			t.Fatalf("POST %d: X-RateLimit-Limit=%q, want 2", i, got)
		}
		if got := resp.Header.Get("X-RateLimit-Remaining"); got != wantRemaining {
			t.Fatalf("POST %d: X-RateLimit-Remaining=%q, want %q", i, got, wantRemaining)
		}
		if resp.Header.Get("X-RateLimit-Reset") == "" {
			t.Fatalf("POST %d: missing X-RateLimit-Reset", i)
		}
	}
	// Third POST at the same instant: 429 with the full header set.
	resp := authedDo(t, http.MethodPost, ts.URL+"/datasets", "k-acme", smallDatasetJSON(t, "rl"))
	body := decodeMap(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate POST: code=%d, want 429", resp.StatusCode)
	}
	if body["reason"] != "rate_limited" {
		t.Fatalf("over-rate POST: reason=%v, want rate_limited", body["reason"])
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After=%q, want 1 (1 token at 1/s)", got)
	}
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "0" {
		t.Fatalf("429 X-RateLimit-Remaining=%q, want 0", got)
	}
	// Reset points at the unix second the bucket is full again: 2 tokens
	// to refill at 1/s from empty.
	if got := resp.Header.Get("X-RateLimit-Reset"); got != fmt.Sprint(clock().Unix()+2) {
		t.Fatalf("429 X-RateLimit-Reset=%q, want %d", got, clock().Unix()+2)
	}

	// One second later one token is back.
	advance(time.Second)
	if resp := post(); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("POST after refill still rate limited")
	}

	// GETs never spend tokens: polling is free even for a drained bucket.
	for i := 0; i < 5; i++ {
		r := authedDo(t, http.MethodGet, ts.URL+"/jobs", "k-acme", nil)
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %d throttled: code=%d", i, r.StatusCode)
		}
	}

	// A tenant with no rate configured sees no rate headers at all.
	r := authedDo(t, http.MethodPost, ts.URL+"/datasets", "k-free", smallDatasetJSON(t, "fr"))
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("unlimited tenant POST: code=%d", r.StatusCode)
	}
	if v := r.Header.Get("X-RateLimit-Limit"); v != "" {
		t.Fatalf("unlimited tenant got X-RateLimit-Limit=%q", v)
	}

	// The counter is visible per tenant on /stats.
	if got := statsTenant(t, ts.URL, "acme")["rate_limited_total"].(float64); got != 1 {
		t.Fatalf("acme rate_limited_total=%v, want 1", got)
	}
}

// ---- quotas ----

func TestTenantStoredBytesQuota(t *testing.T) {
	raw1 := smallDatasetJSON(t, "q1")
	ds1, err := dataset.ReadJSON(bytes.NewReader(raw1))
	if err != nil {
		t.Fatal(err)
	}
	// Room for one copy of ds1 plus slack, but not for a second dataset.
	quota := ds1.ApproxBytes() + ds1.ApproxBytes()/2
	_, ts := newTenantServer(t, Options{Workers: 1},
		TenantConfig{ID: "acme", Key: "k-acme", MaxStoredBytes: quota})

	code, ref1, _ := authedUpload(t, ts.URL, "k-acme", raw1)
	if code != http.StatusCreated {
		t.Fatalf("first upload: code=%d", code)
	}
	// A second, distinct dataset would exceed the quota: 403 with reason.
	resp := authedDo(t, http.MethodPost, ts.URL+"/datasets", "k-acme", smallDatasetJSON(t, "q2"))
	body := decodeMap(t, resp)
	if resp.StatusCode != http.StatusForbidden || body["reason"] != "quota_stored_bytes" {
		t.Fatalf("over-quota upload: code=%d reason=%v, want 403 quota_stored_bytes", resp.StatusCode, body["reason"])
	}
	// Re-uploading content the tenant already claims costs nothing.
	if code, ref, _ := authedUpload(t, ts.URL, "k-acme", raw1); code != http.StatusOK || ref != ref1 {
		t.Fatalf("re-upload of claimed content: code=%d ref=%q, want 200 %q", code, ref, ref1)
	}
	tv := statsTenant(t, ts.URL, "acme")
	if got := tv["stored_bytes"].(float64); int64(got) != ds1.ApproxBytes() {
		t.Fatalf("stored_bytes=%v, want %d", got, ds1.ApproxBytes())
	}
	if got := tv["quota_rejects_total"].(float64); got != 1 {
		t.Fatalf("quota_rejects_total=%v, want 1", got)
	}
	// Deleting the claim frees the quota.
	if resp, _ := authedJSON(t, http.MethodDelete, ts.URL+"/datasets/"+ref1, "k-acme", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: code=%d", resp.StatusCode)
	}
	if code, _, b := authedUpload(t, ts.URL, "k-acme", smallDatasetJSON(t, "q2")); code != http.StatusCreated {
		t.Fatalf("upload after freeing quota: code=%d body=%v", code, b)
	}
}

func TestTenantPendingJobsQuota(t *testing.T) {
	srv, ts := newTenantServer(t, Options{Workers: 1, MaxConcurrentJobs: 1},
		TenantConfig{ID: "acme", Key: "k-acme", MaxConcurrentJobs: 1, MaxPendingJobs: 1})
	_, ref, _ := authedUpload(t, ts.URL, "k-acme", smallDatasetJSON(t, "pq"))
	req := map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
	}

	// Hold a slot as acme: the tenant is at its concurrency cap and the
	// server's only slot is taken, so the first submission stays
	// deterministically queued.
	releaseSlot := holdSlot(t, srv, "acme")

	id1 := submitAs(t, ts.URL, "k-acme", req)
	resp, body := authedJSON(t, http.MethodPost, ts.URL+"/anonymize", "k-acme", req)
	if resp.StatusCode != http.StatusTooManyRequests || body["reason"] != "quota_pending_jobs" {
		t.Fatalf("over-quota submit: code=%d reason=%v, want 429 quota_pending_jobs", resp.StatusCode, body["reason"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 is missing Retry-After")
	}
	if got := statsTenant(t, ts.URL, "acme")["quota_rejects_total"].(float64); got != 1 {
		t.Fatalf("quota_rejects_total=%v, want 1", got)
	}

	// Give the slot back; the queued job dispatches and completes, and
	// the quota admits submissions again.
	releaseSlot()
	if st := pollDoneAs(t, ts.URL, "k-acme", id1); st != StatusDone {
		t.Fatalf("queued job ended %s, want done", st)
	}
	id2 := submitAs(t, ts.URL, "k-acme", req)
	if st := pollDoneAs(t, ts.URL, "k-acme", id2); st != StatusDone {
		t.Fatalf("post-quota job ended %s, want done", st)
	}
}

// ---- scoping ----

// TestTenantJobScopingAndCursor pins that GET /jobs lists only the
// caller's tenant, that job detail routes answer 404 across tenants, and
// that the after= cursor is a pure sequence watermark — naming another
// tenant's job ID leaks nothing.
func TestTenantJobScopingAndCursor(t *testing.T) {
	_, ts := newTenantServer(t, Options{Workers: 1},
		TenantConfig{ID: "alpha", Key: "k-alpha"},
		TenantConfig{ID: "beta", Key: "k-beta"})

	_, refA, _ := authedUpload(t, ts.URL, "k-alpha", smallDatasetJSON(t, "ja"))
	_, refB, _ := authedUpload(t, ts.URL, "k-beta", smallDatasetJSON(t, "jb"))
	reqFor := func(ref string) map[string]any {
		return map[string]any{
			"dataset_ref": ref,
			"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
		}
	}
	a1 := submitAs(t, ts.URL, "k-alpha", reqFor(refA))
	a2 := submitAs(t, ts.URL, "k-alpha", reqFor(refA))
	b1 := submitAs(t, ts.URL, "k-beta", reqFor(refB))
	for _, j := range []struct{ key, id string }{{"k-alpha", a1}, {"k-alpha", a2}, {"k-beta", b1}} {
		if st := pollDoneAs(t, ts.URL, j.key, j.id); st != StatusDone {
			t.Fatalf("job %s ended %s, want done", j.id, st)
		}
	}

	listIDs := func(key, query string) ([]string, int) {
		resp, body := authedJSON(t, http.MethodGet, ts.URL+"/jobs"+query, key, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q as %s: code=%d", query, key, resp.StatusCode)
		}
		var ids []string
		for _, v := range body["jobs"].([]any) {
			jv := v.(map[string]any)
			ids = append(ids, jv["job"].(string))
		}
		return ids, int(body["total"].(float64))
	}
	if ids, total := listIDs("k-alpha", ""); total != 2 || len(ids) != 2 || ids[0] != a1 || ids[1] != a2 {
		t.Fatalf("alpha list: ids=%v total=%d, want [%s %s] 2", ids, total, a1, a2)
	}
	if ids, total := listIDs("k-beta", ""); total != 1 || len(ids) != 1 || ids[0] != b1 {
		t.Fatalf("beta list: ids=%v total=%d, want [%s] 1", ids, total, b1)
	}

	// The cursor cannot leak: beta paging "after alpha's first job" sees
	// only beta's own jobs; alpha paging "after beta's job" sees nothing
	// foreign (its own jobs are older than the watermark).
	if ids, total := listIDs("k-beta", "?after="+a1); total != 1 || len(ids) != 1 || ids[0] != b1 {
		t.Fatalf("beta ?after=%s: ids=%v total=%d, want only %s", a1, ids, total, b1)
	}
	if ids, total := listIDs("k-alpha", "?after="+b1); len(ids) != 0 || total != 2 {
		t.Fatalf("alpha ?after=%s: ids=%v total=%d, want no rows, total 2", b1, ids, total)
	}

	// Detail routes: another tenant's job is a 404, byte-identical in kind
	// to a job that never existed.
	for _, path := range []string{"/jobs/" + a1, "/jobs/" + a1 + "/result", "/jobs/" + a1 + "/trace"} {
		resp, _ := authedJSON(t, http.MethodGet, ts.URL+path, "k-beta", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s as beta: code=%d, want 404", path, resp.StatusCode)
		}
	}
	if resp, _ := authedJSON(t, http.MethodDelete, ts.URL+"/jobs/"+a1, "k-beta", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE foreign job: code=%d, want 404", resp.StatusCode)
	}
	// The owner still sees everything, with the tenant stamped.
	resp, body := authedJSON(t, http.MethodGet, ts.URL+"/jobs/"+a1, "k-alpha", nil)
	if resp.StatusCode != http.StatusOK || body["tenant"] != "alpha" {
		t.Fatalf("owner job view: code=%d tenant=%v", resp.StatusCode, body["tenant"])
	}
}

// TestTenantDatasetScopingAndSharedBlob pins dataset scoping (list, info,
// delete are all per-claim) and the content-addressed sharing contract:
// two tenants uploading identical bytes share one blob, and one tenant's
// delete only releases its own claim.
func TestTenantDatasetScopingAndSharedBlob(t *testing.T) {
	srv, ts := newTenantServer(t, Options{Workers: 1},
		TenantConfig{ID: "alpha", Key: "k-alpha"},
		TenantConfig{ID: "beta", Key: "k-beta"})

	shared := smallDatasetJSON(t, "sh")
	_, refShared, _ := authedUpload(t, ts.URL, "k-alpha", shared)
	codeB, refSharedB, _ := authedUpload(t, ts.URL, "k-beta", shared)
	if refSharedB != refShared {
		t.Fatalf("identical uploads got different refs: %q vs %q", refShared, refSharedB)
	}
	// The blob already existed; beta's upload is 200, not 201, but it
	// creates beta's own claim.
	if codeB != http.StatusOK {
		t.Fatalf("beta upload of shared content: code=%d, want 200", codeB)
	}
	_, refOwn, _ := authedUpload(t, ts.URL, "k-beta", smallDatasetJSON(t, "own"))

	// Listing is claim-scoped.
	listRefs := func(key string) []string {
		resp, body := authedJSON(t, http.MethodGet, ts.URL+"/datasets", key, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list datasets as %s: code=%d", key, resp.StatusCode)
		}
		var refs []string
		for _, v := range body["datasets"].([]any) {
			refs = append(refs, v.(map[string]any)["dataset_ref"].(string))
		}
		return refs
	}
	if got := listRefs("k-alpha"); len(got) != 1 || got[0] != refShared {
		t.Fatalf("alpha dataset list=%v, want [%s]", got, refShared)
	}
	if got := strings.Join(listRefs("k-beta"), ","); !strings.Contains(got, refShared) || !strings.Contains(got, refOwn) {
		t.Fatalf("beta dataset list=%v, want both %s and %s", got, refShared, refOwn)
	}

	// Cross-tenant info/delete on an unclaimed ref: 404, like any unknown.
	if resp, _ := authedJSON(t, http.MethodGet, ts.URL+"/datasets/"+refOwn, "k-alpha", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign dataset info: code=%d, want 404", resp.StatusCode)
	}
	if resp, _ := authedJSON(t, http.MethodDelete, ts.URL+"/datasets/"+refOwn, "k-alpha", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign dataset delete: code=%d, want 404", resp.StatusCode)
	}

	// Alpha's delete releases only alpha's claim: beta keeps the shared
	// dataset, and a job of beta's over it still runs.
	if resp, _ := authedJSON(t, http.MethodDelete, ts.URL+"/datasets/"+refShared, "k-alpha", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha delete of shared ref: code=%d", resp.StatusCode)
	}
	if resp, _ := authedJSON(t, http.MethodGet, ts.URL+"/datasets/"+refShared, "k-alpha", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("alpha sees released ref: code=%d, want 404", resp.StatusCode)
	}
	if resp, _ := authedJSON(t, http.MethodGet, ts.URL+"/datasets/"+refShared, "k-beta", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta lost the shared ref after alpha's delete: code=%d", resp.StatusCode)
	}
	id := submitAs(t, ts.URL, "k-beta", map[string]any{
		"dataset_ref": refShared,
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
	})
	if st := pollDoneAs(t, ts.URL, "k-beta", id); st != StatusDone {
		t.Fatalf("beta job over shared ref ended %s, want done", st)
	}
	// A job submission naming a ref the tenant never claimed is a 404 too.
	resp, body := authedJSON(t, http.MethodPost, ts.URL+"/anonymize", "k-alpha", map[string]any{
		"dataset_ref": refOwn,
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("submit over foreign ref: code=%d body=%v, want 404", resp.StatusCode, body)
	}
	// Beta's final delete removes the blob for real.
	if resp, _ := authedJSON(t, http.MethodDelete, ts.URL+"/datasets/"+refShared, "k-beta", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta delete: code=%d", resp.StatusCode)
	}
	if n := srv.tenants.claimCount(refShared); n != 0 {
		t.Fatalf("claims on released ref: %d, want 0", n)
	}
}
