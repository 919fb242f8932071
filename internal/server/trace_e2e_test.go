package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"secreta/internal/gen"
	"secreta/internal/obs"
)

// fetchTrace GETs a job's trace and decodes the span tree.
func fetchTrace(t *testing.T, base, id string) *obs.TraceView {
	t.Helper()
	code, raw := getRaw(t, base+"/jobs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d\n%s", code, raw)
	}
	var tv obs.TraceView
	if err := json.Unmarshal(raw, &tv); err != nil {
		t.Fatalf("decoding trace: %v\n%s", err, raw)
	}
	return &tv
}

// childByName finds a direct child span.
func childByName(sp *obs.SpanView, name string) *obs.SpanView {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestJobTraceEndToEnd runs an anonymize job and checks the full
// lifecycle trace: the span tree shape (job → queue_wait/execute/persist,
// execute → dataset_load/run, run → algorithm phases + evaluate) and the
// timing invariant that run's children are contiguous phases summing to
// the run span — each phase duration came from the engine's stopwatch, so
// the sum must reconstruct the dispatch wall time, and dispatch plus
// evaluation must account for nearly all of run.
func TestJobTraceEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	resp, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster+apriori/rmerger", K: 4, M: 2, Delta: 0.5},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %v", resp.StatusCode, body)
	}
	id := body["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job ended %s", st)
	}

	tv := fetchTrace(t, ts.URL, id)
	if tv.Job != id {
		t.Fatalf("trace job = %q, want %q", tv.Job, id)
	}
	if !tv.Complete {
		t.Fatal("terminal job's trace is not complete")
	}
	root := tv.Trace
	if root == nil || root.Name != "job" {
		t.Fatalf("root span = %+v, want name job", root)
	}
	if root.Attrs["status"] != string(StatusDone) {
		t.Fatalf("root status attr = %q, want done", root.Attrs["status"])
	}
	for _, name := range []string{"queue_wait", "execute", "persist"} {
		if childByName(root, name) == nil {
			t.Errorf("root has no %q child; children: %v", name, spanNames(root))
		}
	}
	exec := childByName(root, "execute")
	if exec == nil {
		t.Fatal("no execute span")
	}
	run := childByName(exec, "run")
	if run == nil {
		t.Fatalf("execute has no run child; children: %v", spanNames(exec))
	}
	if load := childByName(exec, "dataset_load"); load == nil {
		t.Errorf("execute has no dataset_load child; children: %v", spanNames(exec))
	} else if load.Attrs["fingerprint"] == "" {
		t.Errorf("dataset_load lacks fingerprint attr: %v", load.Attrs)
	}

	// The paper's RT-anonymization pipeline phases must appear under run,
	// in order, contiguous from the run start.
	if len(run.Children) < 2 {
		t.Fatalf("run has %d children, want phases + evaluate: %v", len(run.Children), spanNames(run))
	}
	var phaseSum, cursor float64
	sawEvaluate := false
	for i, c := range run.Children {
		if c.Open {
			t.Errorf("child %s still open in a complete trace", c.Name)
		}
		if c.Name == "evaluate" {
			sawEvaluate = true
			continue
		}
		// Phases are contiguous: each starts where the previous ended
		// (within float re-encoding noise).
		if i > 0 || cursor > 0 {
			if d := math.Abs(c.StartMS - (run.StartMS + cursor)); d > 0.01 {
				t.Errorf("phase %s starts at %.3fms, want contiguous at %.3fms", c.Name, c.StartMS, run.StartMS+cursor)
			}
		}
		cursor += c.DurationMS
		phaseSum += c.DurationMS
	}
	if !sawEvaluate {
		t.Errorf("run children lack evaluate: %v", spanNames(run))
	}
	if phaseSum <= 0 {
		t.Fatalf("phase durations sum to %v", phaseSum)
	}
	// Phases + evaluate must account for the run span within 5% (small
	// absolute floor so a microsecond-scale test job cannot flake on
	// scheduler noise).
	var accounted float64
	for _, c := range run.Children {
		accounted += c.DurationMS
	}
	slack := run.DurationMS * 0.05
	if slack < 0.5 {
		slack = 0.5
	}
	if diff := run.DurationMS - accounted; diff < 0 || diff > slack {
		t.Errorf("run = %.3fms but children account for %.3fms (slack %.3fms)", run.DurationMS, accounted, slack)
	}
	// And the root span must cover everything beneath it.
	if root.DurationMS < run.DurationMS {
		t.Errorf("root %.3fms shorter than run %.3fms", root.DurationMS, run.DurationMS)
	}
}

func spanNames(sp *obs.SpanView) []string {
	names := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		names[i] = c.Name
	}
	return names
}

// TestTraceUnknownJob404s covers the no-trace path.
func TestTraceUnknownJob404s(t *testing.T) {
	ts := newTestServer(t)
	code, raw := getRaw(t, ts.URL+"/jobs/j-nope/trace")
	if code != http.StatusNotFound {
		t.Fatalf("GET trace for unknown job: %d\n%s", code, raw)
	}
}

// TestTraceSurvivesRestart is the durability acceptance: a terminal
// job's trace is journaled to the blob store and served unchanged after
// a process restart, when the in-memory recorder is gone.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts, stop := durableServer(t, dir, Options{Workers: 2})
	raw, _ := patientsJSON(t)
	code, body := uploadDataset(t, ts.URL, raw)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)
	_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref, "config": map[string]any{"algo": "cluster", "k": 4},
	})
	id := sub["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job ended %s", st)
	}
	before := fetchTrace(t, ts.URL, id)

	stop()

	ts2, _ := durableServer(t, dir, Options{Workers: 2})
	after := fetchTrace(t, ts2.URL, id)
	if after.Job != id || !after.Complete {
		t.Fatalf("rehydrated trace: job=%q complete=%v", after.Job, after.Complete)
	}
	if after.Trace == nil || after.Trace.Name != "job" {
		t.Fatalf("rehydrated root = %+v", after.Trace)
	}
	if got, want := after.Spans, before.Spans; got != want {
		t.Errorf("rehydrated span count %d, want %d", got, want)
	}
	if math.Abs(after.DurationMS-before.DurationMS) > 0.001 {
		t.Errorf("rehydrated duration %.3f, want %.3f", after.DurationMS, before.DurationMS)
	}
	// The persisted bytes round-trip: the restarted server serves the
	// blob verbatim, so the tree shape is identical too.
	if got, want := spanNames(after.Trace), spanNames(before.Trace); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("rehydrated children %v, want %v", got, want)
	}
}

// TestDurableFinishOrder pins what a durable server has done by the time
// a poller sees a job done: the trace blob is on disk, the dataset pin is
// released (an immediate DELETE of the dataset succeeds), and the
// finished trace is served from the blob, not from memory — streaming the
// result afterwards leaves the served trace byte-identical. Trace readers
// race the job's finish from several goroutines.
func TestDurableFinishOrder(t *testing.T) {
	dir := t.TempDir()
	ts, _ := durableServer(t, dir, Options{Workers: 2})
	var raw bytes.Buffer
	if err := gen.Census(gen.Config{Records: 2000, Seed: 5}).WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	code, body := uploadDataset(t, ts.URL, raw.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	ref := body["dataset_ref"].(string)
	_, sub := postJSON(t, ts.URL+"/anonymize", map[string]any{
		"dataset_ref": ref, "config": map[string]any{"algo": "cluster", "k": 2},
	})
	id := sub["job"].(string)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET trace while the job finishes: %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	st := pollDone(t, ts.URL, id)
	if _, err := os.Stat(filepath.Join(dir, "traces", id+".json")); err != nil {
		t.Errorf("trace blob missing when done became visible: %v", err)
	}
	if code, body := httpDelete(t, ts.URL+"/datasets/"+ref); code != http.StatusOK {
		t.Errorf("dataset delete right after done: %d %v", code, body)
	}
	close(stop)
	wg.Wait()
	if st != StatusDone {
		t.Fatalf("job ended %s", st)
	}

	_, before := getRaw(t, ts.URL+"/jobs/"+id+"/trace")
	if code, _ := getRaw(t, ts.URL+"/jobs/"+id+"/result/stream"); code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	_, after := getRaw(t, ts.URL+"/jobs/"+id+"/trace")
	if !bytes.Equal(before, after) {
		t.Errorf("finished trace changed after a stream; it is still served from memory")
	}
}
