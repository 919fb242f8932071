package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/store"
)

// fairnessDatasetJSON builds a dataset big enough that an evaluate sweep
// over it takes measurable wall time, so queueing delay dominates poll
// granularity in the fairness assertions.
func fairnessDatasetJSON(t *testing.T, tag string) []byte {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "grp", Kind: dataset.Categorical},
		{Name: "age", Kind: dataset.Categorical},
	}, "items")
	for r := 0; r < 4000; r++ {
		rec := dataset.Record{
			Values: []string{fmt.Sprintf("%s%d", tag, r%37), fmt.Sprintf("a%d", r%53)},
			Items:  []string{"a", "b", "c", fmt.Sprintf("i%d", r%11), fmt.Sprintf("j%d", r%7)},
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

// sweepJobFor is an /evaluate body whose sweep keeps one worker busy for
// a measurable stretch. Evaluate runs uncached by design, so identical
// submissions cost the same every time.
func sweepJobFor(ref string) map[string]any {
	return map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
		"sweep":       map[string]any{"param": "k", "start": 2, "end": 14, "step": 1},
	}
}

// submitEvalAs submits an evaluate job under key and returns its job ID.
func submitEvalAs(t *testing.T, base, key string, req any) string {
	t.Helper()
	resp, body := authedJSON(t, http.MethodPost, base+"/evaluate", key, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("evaluate as %q: code=%d body=%v", key, resp.StatusCode, body)
	}
	return body["job"].(string)
}

// promValue scans a Prometheus text exposition for an exactly-labelled
// sample and returns its value.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestTenantStarvationFairness is the tentpole's acceptance e2e: tenant
// alpha floods the queue while tenant beta submits occasionally; WRR
// admission must keep serving beta at close to its idle latency instead
// of parking it behind alpha's backlog. It then cross-checks the
// per-tenant /metrics families against the /stats tenants block.
func TestTenantStarvationFairness(t *testing.T) {
	_, ts := newTenantServer(t, Options{Workers: 1, MaxConcurrentJobs: 1},
		TenantConfig{ID: "alpha", Key: "k-alpha"},
		TenantConfig{ID: "beta", Key: "k-beta"})

	_, refA, _ := authedUpload(t, ts.URL, "k-alpha", fairnessDatasetJSON(t, "fa"))
	_, refB, _ := authedUpload(t, ts.URL, "k-beta", fairnessDatasetJSON(t, "fb"))

	runOne := func(key, ref string) time.Duration {
		start := time.Now()
		id := submitEvalAs(t, ts.URL, key, sweepJobFor(ref))
		if st := pollDoneAs(t, ts.URL, key, id); st != StatusDone {
			t.Fatalf("job %s (%s) ended %s, want done", id, key, st)
		}
		return time.Since(start)
	}

	// Idle baseline: beta alone on the server, 4 sequential jobs. p95 of
	// 4 samples is the max.
	var idleP95 time.Duration
	for i := 0; i < 4; i++ {
		if d := runOne("k-beta", refB); d > idleP95 {
			idleP95 = d
		}
	}

	// Flood: alpha fires 40 jobs without waiting, then beta runs its 4
	// sequential jobs through the contended queue.
	const flood = 40
	for i := 0; i < flood; i++ {
		submitEvalAs(t, ts.URL, "k-alpha", sweepJobFor(refA))
	}
	var loadedP95 time.Duration
	for i := 0; i < 4; i++ {
		if d := runOne("k-beta", refB); d > loadedP95 {
			loadedP95 = d
		}
	}

	// Fairness, structurally: when beta's last job finishes, alpha must
	// still have backlog — under FIFO the flood would have drained first.
	resp, body := authedJSON(t, http.MethodGet, ts.URL+"/jobs?state=queued", "k-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha queued list: code=%d", resp.StatusCode)
	}
	if total := int(body["total"].(float64)); total == 0 {
		t.Fatal("alpha backlog already drained when beta finished — dispatch looks FIFO, not WRR")
	}

	// Fairness, by latency: within 3x the idle p95 plus a fixed allowance
	// for one in-flight alpha job (WRR is non-preemptive) and poll jitter.
	allowance := idleP95 + 250*time.Millisecond
	if loadedP95 > 3*idleP95+allowance {
		t.Fatalf("beta p95 under alpha flood: %v, idle %v — over the 3x fairness bound (+%v allowance)",
			loadedP95, idleP95, allowance)
	}

	// Let the remaining backlog drain so counters are stable, then check
	// /metrics against /stats: same tenants, same numbers.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := authedJSON(t, http.MethodGet, ts.URL+"/jobs?state=done", "k-alpha", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alpha done list: code=%d", resp.StatusCode)
		}
		if int(body["total"].(float64)) == flood {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha backlog did not drain: %v done of %d", body["total"], flood)
		}
		time.Sleep(20 * time.Millisecond)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(mbody)
	for _, id := range []string{"alpha", "beta"} {
		tv := statsTenant(t, ts.URL, id)
		checks := map[string]float64{
			fmt.Sprintf(`secreta_tenant_stored_bytes{tenant=%q}`, id):      tv["stored_bytes"].(float64),
			fmt.Sprintf(`secreta_tenant_dispatched_total{tenant=%q}`, id):  tv["dispatched_total"].(float64),
			fmt.Sprintf(`secreta_tenant_jobs{tenant=%q,state="done"}`, id): tv["jobs"].(map[string]any)["done"].(float64),
			fmt.Sprintf(`secreta_tenant_jobs{tenant=%q,state="queued"}`, id): func() float64 {
				if v, ok := tv["jobs"].(map[string]any)["queued"]; ok {
					return v.(float64)
				}
				return 0
			}(),
		}
		for name, want := range checks {
			if got := promValue(t, exposition, name); got != want {
				t.Errorf("%s = %v, but /stats says %v", name, got, want)
			}
		}
		if got := promValue(t, exposition, fmt.Sprintf(`secreta_tenant_dispatched_total{tenant=%q}`, id)); got == 0 {
			t.Errorf("tenant %s dispatched_total is zero after running jobs", id)
		}
	}
	// The dispatch split itself: alpha got its flood, beta its 8.
	if got := promValue(t, exposition, `secreta_tenant_dispatched_total{tenant="alpha"}`); got != flood {
		t.Errorf(`alpha dispatched_total=%v, want %d`, got, flood)
	}
	if got := promValue(t, exposition, `secreta_tenant_dispatched_total{tenant="beta"}`); got != 8 {
		t.Errorf(`beta dispatched_total=%v, want 8`, got)
	}
}

// TestTenantOwnershipSurvivesRestart pins that tenant stamps are durable:
// dataset claims and job ownership ride the journal, so after a
// kill-and-restart the same key sees its data and every other key still
// sees 404.
func TestTenantOwnershipSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfgs := []TenantConfig{
		{ID: "alpha", Key: "k-alpha"},
		{ID: "beta", Key: "k-beta"},
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1 := mustNew(t, ctx1, Options{Workers: 1, Store: st, Tenants: cfgs})
	ts1 := httptest.NewServer(srv1.Handler())
	waitReady(t, ts1.URL)

	_, ref, _ := authedUpload(t, ts1.URL, "k-alpha", smallDatasetJSON(t, "dur"))
	id := submitAs(t, ts1.URL, "k-alpha", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
	})
	if got := pollDoneAs(t, ts1.URL, "k-alpha", id); got != StatusDone {
		t.Fatalf("job ended %s, want done", got)
	}

	// Kill: cancel the run context and close the store, as a crash+exit
	// would.
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
	srv2 := mustNew(t, ctx2, Options{Workers: 1, Store: st2, Tenants: cfgs})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		cancel2()
		st2.Close()
	})
	waitReady(t, ts2.URL)

	// Alpha still owns both; the job view carries the recovered stamp.
	if resp, _ := authedJSON(t, http.MethodGet, ts2.URL+"/datasets/"+ref, "k-alpha", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha dataset after restart: code=%d", resp.StatusCode)
	}
	resp, body := authedJSON(t, http.MethodGet, ts2.URL+"/jobs/"+id, "k-alpha", nil)
	if resp.StatusCode != http.StatusOK || body["tenant"] != "alpha" {
		t.Fatalf("alpha job after restart: code=%d tenant=%v", resp.StatusCode, body["tenant"])
	}
	if resp, _ := authedJSON(t, http.MethodGet, ts2.URL+"/jobs/"+id+"/result", "k-alpha", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha result after restart: code=%d", resp.StatusCode)
	}

	// Beta sees neither.
	for _, path := range []string{"/datasets/" + ref, "/jobs/" + id, "/jobs/" + id + "/result"} {
		if resp, _ := authedJSON(t, http.MethodGet, ts2.URL+path, "k-beta", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("beta GET %s after restart: code=%d, want 404", path, resp.StatusCode)
		}
	}
	if n := srv2.tenants.claimCount(ref); n != 1 {
		t.Fatalf("claims on %s after restart: %d, want exactly 1 (no duplicates)", ref, n)
	}
	// And the recovered list is still scoped.
	resp, body = authedJSON(t, http.MethodGet, ts2.URL+"/jobs", "k-beta", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta job list after restart: code=%d", resp.StatusCode)
	}
	if total := int(body["total"].(float64)); total != 0 {
		t.Fatalf("beta sees %d recovered jobs, want 0", total)
	}
}
