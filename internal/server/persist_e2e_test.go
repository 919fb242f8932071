package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"secreta/internal/gen"
	"secreta/internal/store"
)

// durableServer boots a Server over dir's store and returns the test
// server plus a shutdown func that simulates process exit (cancel jobs,
// close HTTP, close store).
func durableServer(t *testing.T, dir string, opts Options) (*httptest.Server, func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	ctx, cancel := context.WithCancel(context.Background())
	srv := mustNew(t, ctx, opts)
	ts := httptest.NewServer(srv.Handler())
	waitReady(t, ts.URL)
	var stopped bool
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		ts.Close()
		if err := st.Close(); err != nil {
			t.Errorf("closing store: %v", err)
		}
	}
	t.Cleanup(stop)
	return ts, stop
}

// waitReady polls /healthz until the readiness gate opens.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		if body["ready"] == true {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRestartRoundTrip is the acceptance e2e: upload + completed job +
// process restart with the same data dir; the dataset and the result are
// served from disk without recomputation, and an identical re-submission
// is a cache hit.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts, stop := durableServer(t, dir, Options{Workers: 2})
	raw, _ := patientsJSON(t)

	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)
	cfg := map[string]any{"algo": "cluster", "k": 4}
	_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{"dataset_ref": ref, "config": cfg})
	jobID := sub["job"].(string)
	if st := pollDone(t, ts.URL, jobID); st != StatusDone {
		t.Fatalf("job ended %s", st)
	}
	code, before := getRaw(t, ts.URL+"/jobs/"+jobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result before restart: %d", code)
	}

	stop() // SIGTERM: drain, final snapshot, close

	ts2, _ := durableServer(t, dir, Options{Workers: 2})

	// The dataset index came back — on disk, not decoded into RAM.
	code, info := getJSON(t, ts2.URL+"/datasets/"+ref)
	if code != http.StatusOK {
		t.Fatalf("dataset after restart: %d %v", code, info)
	}
	if info["resident"] != false {
		t.Fatalf("dataset should be disk-only after restart: %v", info)
	}

	// The finished job came back with its result, byte-identical.
	code, view := getJSON(t, ts2.URL+"/jobs/"+jobID)
	if code != http.StatusOK || view["status"] != string(StatusDone) {
		t.Fatalf("job after restart: %d %v", code, view)
	}
	if view["recovered"] != true {
		t.Fatalf("restored job not flagged recovered: %v", view)
	}
	code, after := getRaw(t, ts2.URL+"/jobs/"+jobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result after restart: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("result changed across restart")
	}

	// Same submission again: served from the persisted result cache.
	_, sub = postJSON(t, ts2.URL+"/anonymize", map[string]any{"dataset_ref": ref, "config": cfg})
	again := sub["job"].(string)
	if st := pollDone(t, ts2.URL, again); st != StatusDone {
		t.Fatalf("re-submitted job ended %s", st)
	}
	code, res := getJSON(t, ts2.URL+"/jobs/"+again+"/result")
	if code != http.StatusOK || res["cache_hit"] != true {
		t.Fatalf("re-submission not a cache hit: %d %v", code, res)
	}

	// Store metrics are live on /stats.
	_, stats := getJSON(t, ts2.URL+"/stats")
	st, ok := stats["store"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing store block: %v", stats)
	}
	if st["datasets"].(map[string]any)["count"].(float64) != 1 {
		t.Fatalf("store stats: %v", st)
	}
	rec, ok := stats["recovery"].(map[string]any)
	if !ok || rec["done"] != true || rec["restored_jobs"].(float64) < 1 {
		t.Fatalf("recovery stats: %v", stats["recovery"])
	}
	if cstats := stats["cache"].(map[string]any); cstats["disk_hits"].(float64) != 1 {
		t.Fatalf("cache stats after disk hit: %v", cstats)
	}
}

// TestRecoveryRequeuesInflight crafts the journal a crash leaves behind —
// a submitted+started job with no terminal record — and expects the next
// boot to run it to completion, re-pinning its dataset from disk.
func TestRecoveryRequeuesInflight(t *testing.T) {
	dir := t.TempDir()
	_, ds := patientsJSON(t)
	ref := ds.Fingerprint()

	// Simulate the dead process's store: dataset saved, job journaled as
	// running, then the process "dies" without a finish record (Journal
	// is closed via its file to skip the clean-shutdown snapshot — the
	// state on disk is identical either way, this just mirrors a crash).
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Datasets.Save(ref, ds); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Submit(store.JobRecord{
		ID: "j-000041", Seq: 41, Kind: "anonymize", Status: string(StatusQueued),
		DatasetRef: ref, Body: body, SubmittedAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Start("j-000041"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts, _ := durableServer(t, dir, Options{Workers: 2})
	code, view := getJSON(t, ts.URL+"/jobs/j-000041")
	if code != http.StatusOK {
		t.Fatalf("requeued job missing: %d %v", code, view)
	}
	if view["recovered"] != true {
		t.Fatalf("requeued job not flagged recovered: %v", view)
	}
	if st := pollDone(t, ts.URL, "j-000041"); st != StatusDone {
		t.Fatalf("requeued job ended %s", st)
	}
	code, res := getJSON(t, ts.URL+"/jobs/j-000041/result")
	if code != http.StatusOK || res["cache_hit"] == nil {
		t.Fatalf("requeued job result: %d %v", code, res)
	}
	// New submissions number past the recovered job.
	_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{"dataset_ref": ref, "config": map[string]any{"algo": "cluster", "k": 2}})
	if sub["job"].(string) <= "j-000041" {
		t.Fatalf("new job %s collides with recovered sequence", sub["job"])
	}
	// Let that job finish before cleanup closes the store and removes the
	// directory, or its journal record and trace blob race the removal.
	if st := pollDone(t, ts.URL, sub["job"].(string)); st != StatusDone {
		t.Fatalf("new job ended %s", st)
	}
}

// TestRecoveryFailsRequeueWhenDatasetGone: an in-flight job whose dataset
// blob vanished must come back failed — visible, not silently dropped.
func TestRecoveryFailsRequeueWhenDatasetGone(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"dataset_ref": "deadbeef",
		"config":      map[string]any{"algo": "cluster", "k": 4},
	})
	if err := st.Journal.Submit(store.JobRecord{
		ID: "j-000007", Seq: 7, Kind: "anonymize", Status: string(StatusQueued),
		DatasetRef: "deadbeef", Body: body, SubmittedAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts, _ := durableServer(t, dir, Options{})
	code, view := getJSON(t, ts.URL+"/jobs/j-000007")
	if code != http.StatusOK || view["status"] != string(StatusFailed) {
		t.Fatalf("orphaned job: %d %v", code, view)
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	if rec := stats["recovery"].(map[string]any); rec["failed_requeues"].(float64) != 1 {
		t.Fatalf("recovery stats: %v", rec)
	}
}

// TestServerBootsFromTornWAL appends garbage to the WAL tail and expects
// the server to boot with everything up to the last valid record — the
// acceptance criterion that a torn final record recovers to the last
// complete state instead of failing to boot.
func TestServerBootsFromTornWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Submit(store.JobRecord{
		ID: "j-000001", Seq: 1, Kind: "evaluate", Status: string(StatusQueued), SubmittedAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Finish("j-000001", string(StatusFailed), "whatever", false); err != nil {
		t.Fatal(err)
	}
	// Crash-close, then tear the tail mid-record.
	walPath := filepath.Join(dir, "journal", "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0x12, 0x34}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ts, _ := durableServer(t, dir, Options{})
	code, view := getJSON(t, ts.URL+"/jobs/j-000001")
	if code != http.StatusOK || view["status"] != string(StatusFailed) {
		t.Fatalf("job from repaired WAL: %d %v", code, view)
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	replay := stats["store"].(map[string]any)["journal"].(map[string]any)["replay"].(map[string]any)
	if replay["torn_tail"] != true {
		t.Fatalf("torn tail not reported: %v", replay)
	}
}

// TestJobTimeout pins the timed_out lifecycle: a compare sweep with a
// 1ms budget cannot finish and must land in StatusTimedOut (422 on the
// result endpoint), distinct from cancelled. The sweep runs Cluster at
// k=2..20 over 5,000 generated records, seconds of work even before the
// dataset decode, so it overruns the budget on any machine.
func TestJobTimeout(t *testing.T) {
	ts := newTestServer(t)
	var raw bytes.Buffer
	if err := gen.Census(gen.Config{Records: 5000, Seed: 3}).WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	_, sub := postJSON(t, ts.URL+"/compare", map[string]any{
		"dataset":    json.RawMessage(raw.Bytes()),
		"configs":    []map[string]any{{"algo": "cluster", "k": 2}},
		"sweep":      map[string]any{"param": "k", "start": 2, "end": 20, "step": 1},
		"timeout_ms": 1,
	})
	id, ok := sub["job"].(string)
	if !ok {
		t.Fatalf("submit: %v", sub)
	}
	if st := pollDone(t, ts.URL, id); st != StatusTimedOut {
		t.Fatalf("job ended %s, want %s", st, StatusTimedOut)
	}
	code, res := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusUnprocessableEntity || res["status"] != string(StatusTimedOut) {
		t.Fatalf("result of timed-out job: %d %v", code, res)
	}
}

// TestServerTimeoutCapsRequestTimeout: the operator's -job-timeout is a
// ceiling the request cannot exceed.
func TestServerTimeoutCapsRequestTimeout(t *testing.T) {
	srv := mustNew(t, context.Background(), Options{JobTimeout: 50 * time.Millisecond})
	if got := srv.effectiveTimeout(0); got != 50*time.Millisecond {
		t.Fatalf("default: %v", got)
	}
	if got := srv.effectiveTimeout(10); got != 10*time.Millisecond {
		t.Fatalf("tighter request: %v", got)
	}
	if got := srv.effectiveTimeout(5000); got != 50*time.Millisecond {
		t.Fatalf("looser request not capped: %v", got)
	}
	open := mustNew(t, context.Background(), Options{})
	if got := open.effectiveTimeout(25); got != 25*time.Millisecond {
		t.Fatalf("no server default: %v", got)
	}
	if got := open.effectiveTimeout(0); got != 0 {
		t.Fatalf("no timeouts anywhere: %v", got)
	}
}

// TestJobListFilterAndPagination covers the GET /jobs satellite: state=,
// limit= and after= keep a long job table pollable.
func TestJobListFilterAndPagination(t *testing.T) {
	ts := newTestServer(t)
	raw, _ := patientsJSON(t)
	var ids []string
	for i := 0; i < 3; i++ {
		_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
			"dataset": json.RawMessage(raw),
			"config":  map[string]any{"algo": "cluster", "k": 2 + i},
		})
		id := sub["job"].(string)
		ids = append(ids, id)
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			t.Fatalf("job %d ended %s", i, st)
		}
	}

	code, list := getJSON(t, ts.URL+"/jobs?state=done")
	if code != http.StatusOK || list["total"].(float64) != 3 {
		t.Fatalf("state=done: %d %v", code, list)
	}
	code, list = getJSON(t, ts.URL+"/jobs?state=failed")
	if code != http.StatusOK || list["total"].(float64) != 0 || len(list["jobs"].([]any)) != 0 {
		t.Fatalf("state=failed: %d %v", code, list)
	}
	code, list = getJSON(t, ts.URL+"/jobs?limit=2")
	if code != http.StatusOK || len(list["jobs"].([]any)) != 2 || list["total"].(float64) != 3 {
		t.Fatalf("limit=2: %d %v", code, list)
	}
	first := list["jobs"].([]any)[0].(map[string]any)["job"].(string)
	if first != ids[0] {
		t.Fatalf("pagination order: first=%s want %s", first, ids[0])
	}
	code, list = getJSON(t, ts.URL+"/jobs?after="+ids[1])
	if code != http.StatusOK {
		t.Fatalf("after: %d", code)
	}
	jobs := list["jobs"].([]any)
	if len(jobs) != 1 || jobs[0].(map[string]any)["job"] != ids[2] {
		t.Fatalf("after=%s: %v", ids[1], jobs)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus state: %d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs?limit=x"); code != http.StatusBadRequest {
		t.Fatalf("bogus limit: %d", code)
	}
	// The cursor is derived from the ID, not looked up, so a cursor past
	// everything (or evicted) answers an empty page — a tailing poller
	// must never wedge on 404.
	code, list = getJSON(t, ts.URL+"/jobs?after=j-999999")
	if code != http.StatusOK || len(list["jobs"].([]any)) != 0 {
		t.Fatalf("future cursor: %d %v", code, list)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs?after=bogus"); code != http.StatusBadRequest {
		t.Fatalf("malformed cursor: %d", code)
	}
}

// TestDurableJobEvictionCleansDisk: retention eviction and client delete
// must erase the journal record and the result blob, not just RAM.
func TestDurableJobEvictionCleansDisk(t *testing.T) {
	dir := t.TempDir()
	ts, stop := durableServer(t, dir, Options{Workers: 2, MaxJobs: 2})
	raw, _ := patientsJSON(t)
	var ids []string
	for i := 0; i < 3; i++ {
		_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
			"dataset": json.RawMessage(raw),
			"config":  map[string]any{"algo": "cluster", "k": 2 + i},
		})
		id := sub["job"].(string)
		ids = append(ids, id)
		if st := pollDone(t, ts.URL, id); st != StatusDone {
			t.Fatalf("job %d ended %s", i, st)
		}
	}
	// MaxJobs=2: the oldest job was evicted.
	if code, _ := getJSON(t, ts.URL+"/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job survived retention: %d", code)
	}
	stop()

	// The eviction is durable: a reboot does not resurrect the job, and
	// its result blob is gone from disk.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range st.Journal.Jobs() {
		if rec.ID == ids[0] {
			t.Fatal("evicted job still journaled")
		}
	}
	if st.Results.Has(ids[0]) || st.ResultChunks.Has(ids[0]) {
		t.Fatal("evicted job's result still on disk")
	}
	// Anonymize results persist as chunked record-stream files.
	if !st.ResultChunks.Has(ids[2]) {
		t.Fatal("retained job's result stream missing")
	}
}

// slowDatasetJSON synthesizes uniform random transaction baskets —
// data that resists generalization and keeps Apriori busy for seconds,
// long enough to guarantee a job is mid-run when we pull the plug.
func slowDatasetJSON(t *testing.T) json.RawMessage {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	items := make([]string, 120)
	for i := range items {
		items[i] = fmt.Sprintf("i%04d", i)
	}
	type rec struct {
		Values []string `json:"values"`
		Items  []string `json:"items"`
	}
	type ds struct {
		Attributes  []map[string]string `json:"attributes"`
		Transaction string              `json:"transaction"`
		Records     []rec               `json:"records"`
	}
	out := ds{
		Attributes:  []map[string]string{{"name": "grp", "kind": "categorical"}},
		Transaction: "items",
	}
	for n := 0; n < 2000; n++ {
		perm := rng.Perm(len(items))[:10]
		basket := make([]string, len(perm))
		for i, p := range perm {
			basket[i] = items[p]
		}
		sort.Strings(basket)
		out.Records = append(out.Records, rec{Values: []string{"x"}, Items: basket})
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGracefulShutdownRequeuesRunningJob pins the restart semantics the
// journal encodes: a job still running when the server shuts down is NOT
// journaled cancelled — the durable record stays in-flight and the next
// boot re-runs it to completion.
func TestGracefulShutdownRequeuesRunningJob(t *testing.T) {
	dir := t.TempDir()
	ts, stop := durableServer(t, dir, Options{Workers: 2})
	code, body := uploadDataset(t, ts.URL, slowDatasetJSON(t))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)
	_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 40, "m": 2},
	})
	jobID := sub["job"].(string)
	// Wait until it is actually running, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, v := getJSON(t, ts.URL+"/jobs/"+jobID)
		if v["status"] == string(StatusRunning) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()

	// The journal must still hold the job as in-flight, body included.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rec *store.JobRecord
	for _, r := range st.Journal.Jobs() {
		if r.ID == jobID {
			cp := r
			rec = &cp
		}
	}
	if rec == nil {
		t.Fatal("job missing from journal after shutdown")
	}
	if Status(rec.Status).Terminal() {
		t.Fatalf("shutdown journaled the running job terminally as %q", rec.Status)
	}
	if len(rec.Body) == 0 {
		t.Fatal("in-flight job lost its body")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := durableServer(t, dir, Options{Workers: 2})
	_, v := getJSON(t, ts2.URL+"/jobs/"+jobID)
	if v["recovered"] != true {
		t.Fatalf("job not re-queued after graceful restart: %v", v)
	}
	if st := pollDone(t, ts2.URL, jobID); st != StatusDone {
		t.Fatalf("re-queued job ended %s", st)
	}
}
