package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/store"
)

// slotOf returns the job inputs in ref's registry slot, and whether this
// call had to build them — that is, whether no job of the current
// residency had.
func slotOf(t *testing.T, srv *Server, ref string) (*jobInputs, bool) {
	t.Helper()
	_, release, err := srv.registry.Pin(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	built := false
	v, err := srv.registry.Derived(ref, func(ds *dataset.Dataset, charge func(int64) bool) any {
		built = true
		return newJobInputs(ds, charge)
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(*jobInputs), built
}

// runJob submits req to path and waits for the job to finish.
func runJob(t *testing.T, srv *Server, base, path string, req map[string]any) *job {
	t.Helper()
	resp, sub := postJSON(t, base+path, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: code=%d body=%v", path, resp.StatusCode, sub)
	}
	id := sub["job"].(string)
	if st := pollDone(t, base, id); st != StatusDone {
		_, view := getJSON(t, base+"/jobs/"+id)
		t.Fatalf("job %s ended %s: %v", id, st, view)
	}
	return srv.jobs.get(id)
}

func uploadRef(t *testing.T, base string, raw json.RawMessage) string {
	t.Helper()
	code, body := uploadDataset(t, base, raw)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("upload: code=%d body=%v", code, body)
	}
	return body["dataset_ref"].(string)
}

// TestRefJobsShareDerivedInputs: jobs over one dataset_ref run over the
// registry slot's interning and hierarchies, and the results they retain
// keep that one interning; a deleted and re-uploaded dataset starts a new
// slot; an inline job over the same content leaves the slot alone.
func TestRefJobsShareDerivedInputs(t *testing.T) {
	srv := mustNew(t, context.Background(), Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	raw, _ := patientsJSON(t)
	ref := uploadRef(t, ts.URL, raw)

	// An inline job over the same content neither builds nor fills the
	// ref's slot.
	runJob(t, srv, ts.URL, "/anonymize", map[string]any{"dataset": raw, "config": map[string]any{"algo": "cluster", "k": 3}})
	if _, built := slotOf(t, srv, ref); !built {
		t.Fatal("an inline job built the registry dataset's slot")
	}
	if ji, _ := slotOf(t, srv, ref); len(ji.rel) != 0 || ji.in.ApproxBytes() != 0 {
		t.Fatal("an inline job filled the registry dataset's slot")
	}

	// Two cache-missing relational jobs on the ref: their retained
	// results publish over the slot's one interning.
	var jobs []*job
	for _, k := range []int{4, 5} {
		jobs = append(jobs, runJob(t, srv, ts.URL, "/anonymize", map[string]any{"dataset_ref": ref, "config": map[string]any{"algo": "cluster", "k": k}}))
	}
	slot, built := slotOf(t, srv, ref)
	if built {
		t.Fatal("the ref jobs left the slot unbuilt")
	}
	shared := slot.in.Indexed().ItemDict
	for _, j := range jobs {
		_, res, _ := j.snapshot()
		if res.recs.(memRecords).src.ItemDict != shared {
			t.Fatalf("job %s's result does not share the slot's interning", j.id)
		}
	}

	// Every load of the ref hands out the same inputs, and every config
	// the same hierarchies: one set per fanout for the residency.
	var sets []engine.Config
	for range 2 {
		load, release, err := srv.resolveDataset(nil, ref, "")
		if err != nil {
			t.Fatal(err)
		}
		ji, _, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if ji != slot {
			t.Fatal("a load of the ref returned inputs other than its slot's")
		}
		cfg := engine.Config{Mode: engine.RT, RelAlgo: "cluster", TransAlgo: "apriori", K: 3, M: 2}
		if err := attachInputs(&cfg, ji, 4, nil); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, cfg)
		release()
	}
	if len(slot.rel) != 1 || len(slot.items) != 1 {
		t.Fatalf("slot holds %d relational and %d item hierarchy sets, want one each", len(slot.rel), len(slot.items))
	}
	for attr, h := range slot.rel[4].v {
		if sets[0].Hierarchies[attr] != h || sets[1].Hierarchies[attr] != h {
			t.Fatalf("configs got a %s hierarchy other than the slot's", attr)
		}
	}
	if sets[0].ItemHierarchy != slot.items[4].v || sets[1].ItemHierarchy != slot.items[4].v {
		t.Fatal("configs got an item hierarchy other than the slot's")
	}
	// The slot's bytes count towards the registry's occupancy.
	info, err := srv.registry.Describe(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.registry.Stats(); st.Bytes <= info.Bytes {
		t.Fatalf("registry bytes %d do not exceed the dataset's own %d: the slot is uncharged", st.Bytes, info.Bytes)
	}

	// DELETE drops the slot with the dataset; a re-upload starts afresh.
	if code, body := httpDelete(t, ts.URL+"/datasets/"+ref); code != http.StatusOK {
		t.Fatalf("delete: code=%d body=%v", code, body)
	}
	if uploadRef(t, ts.URL, raw) != ref {
		t.Fatal("re-upload changed the ref")
	}
	runJob(t, srv, ts.URL, "/anonymize", map[string]any{"dataset_ref": ref, "config": map[string]any{"algo": "cluster", "k": 6}})
	if again, _ := slotOf(t, srv, ref); again == slot {
		t.Fatal("the re-uploaded dataset kept the deleted one's slot")
	}
}

// TestReloadedRefGetsFreshSlot: a durable dataset evicted from RAM and
// reloaded by its next job is a new residency, with a new slot.
func TestReloadedRefGetsFreshSlot(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := mustNew(t, ctx, Options{Workers: 1, RegistryMaxDatasets: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		cancel()
		ts.Close()
		st.Close()
	})
	waitReady(t, ts.URL)
	refA := uploadRef(t, ts.URL, smallDatasetJSON(t, "a"))
	cfg := map[string]any{"algo": "apriori", "k": 2, "m": 1}
	runJob(t, srv, ts.URL, "/anonymize", map[string]any{"dataset_ref": refA, "config": cfg})
	first, built := slotOf(t, srv, refA)
	if built {
		t.Fatal("the job left the slot unbuilt")
	}
	uploadRef(t, ts.URL, smallDatasetJSON(t, "b")) // evicts A from RAM
	if info, err := srv.registry.Describe(refA); err != nil || info.Resident {
		t.Fatalf("A still resident after B's upload: %+v %v", info, err)
	}
	cfg["k"] = 3
	runJob(t, srv, ts.URL, "/anonymize", map[string]any{"dataset_ref": refA, "config": cfg})
	second, built := slotOf(t, srv, refA)
	if built || second == first {
		t.Fatal("the reloaded dataset did not get a fresh slot of its own")
	}
}

// TestSlotGrowthKeepsMemoryOnlyDatasets: a memory-only registry holds
// the only copy of each upload, so jobs that grow a dataset's slot past
// the byte cap — here one at about 85% of it, at fanout after fanout —
// must empty the slot, never delete the dataset or its neighbour.
func TestSlotGrowthKeepsMemoryOnlyDatasets(t *testing.T) {
	raw, ds := patientsJSON(t)
	small := smallDatasetJSON(t, "b")
	smallDS, err := decodeDataset(small)
	if err != nil {
		t.Fatal(err)
	}
	maxBytes := smallDS.ApproxBytes() + ds.ApproxBytes()*20/17
	srv := mustNew(t, context.Background(), Options{Workers: 2, RegistryMaxBytes: maxBytes})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	refs := []string{uploadRef(t, ts.URL, raw), uploadRef(t, ts.URL, small)}
	for fanout := 2; fanout <= 7; fanout++ {
		for _, algo := range []string{"cluster", "apriori"} {
			cfg := map[string]any{"algo": algo, "k": 3, "m": 2, "fanout": fanout}
			runJob(t, srv, ts.URL, "/anonymize", map[string]any{"dataset_ref": refs[0], "config": cfg})
			for _, ref := range refs {
				if code, body := getJSON(t, ts.URL+"/datasets/"+ref); code != http.StatusOK {
					t.Fatalf("fanout %d %s: dataset %s gone: code=%d body=%v", fanout, algo, ref, code, body)
				}
			}
			if st := srv.registry.Stats(); st.Bytes > maxBytes || st.Evictions != 0 {
				t.Fatalf("fanout %d %s: registry %+v over its %d-byte cap or evicting", fanout, algo, st, maxBytes)
			}
		}
	}
}

// TestConcurrentRefJobsShareInputs races 8 concurrent submitters, each
// running every HTTP-runnable algorithm spec, over one dataset_ref whose
// slot none has filled yet; run under -race it checks the shared inputs'
// locking. /evaluate runs uncached, so every job really runs, and jobs
// with equal configs must report equal indicators.
func TestConcurrentRefJobsShareInputs(t *testing.T) {
	srv := mustNew(t, context.Background(), Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	raw, _ := patientsJSON(t)
	ref := uploadRef(t, ts.URL, raw)
	specs := []string{
		"incognito", "topdown", "bottomup", "cluster",
		"apriori", "lra", "vpa",
		"cluster+apriori/rmerger", "topdown+vpa/tmerger",
	}
	const submitters = 8
	ids := make([][]string, submitters)
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range specs {
				cfg := map[string]any{"algo": spec, "k": 3 + g%2, "m": 2, "delta": 0.5}
				b, _ := json.Marshal(map[string]any{"dataset_ref": ref, "config": cfg})
				resp, err := http.Post(ts.URL+"/evaluate", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				var sub map[string]any
				json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				id, ok := sub["job"].(string)
				if !ok {
					t.Errorf("%s rejected: %v", spec, sub)
					return
				}
				ids[g] = append(ids[g], id)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	indicators := make(map[string]string) // spec/k -> indicators JSON
	for g, gids := range ids {
		for i, id := range gids {
			if st := pollDone(t, ts.URL, id); st != StatusDone {
				t.Fatalf("%s job %s ended %s", specs[i], id, st)
			}
			_, res := getJSON(t, ts.URL+"/jobs/"+id+"/result")
			got, _ := json.Marshal(res["results"].([]any)[0].(map[string]any)["indicators"])
			key := fmt.Sprintf("%s/k=%d", specs[i], 3+g%2)
			if want, ok := indicators[key]; ok && want != string(got) {
				t.Fatalf("%s: indicators differ between concurrent jobs:\n%s\n%s", key, want, got)
			}
			indicators[key] = string(got)
		}
	}
	slot, built := slotOf(t, srv, ref)
	if built || len(slot.rel) != 1 || len(slot.items) != 1 {
		t.Fatalf("slot built=%v with %d/%d hierarchy sets, want one shared set", built, len(slot.rel), len(slot.items))
	}
	if len(indicators) != len(specs)*2 {
		t.Fatalf("%d distinct configs ran, want %d", len(indicators), len(specs)*2)
	}
}
