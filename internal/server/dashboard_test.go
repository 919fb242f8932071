package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDashboardSelfContained pins the zero-dependency property: the
// dashboard page is one embedded HTML document with no external asset
// references — every style and script inline, charts arriving as SVG
// strings inside the data JSON.
func TestDashboardSelfContained(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /dashboard: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	_, raw := getRaw(t, ts.URL+"/dashboard")
	page := string(raw)
	if !strings.Contains(page, "/dashboard/data") {
		t.Error("page does not poll /dashboard/data")
	}
	for _, banned := range []string{"http://", "https://", "<link", "src=", "@import", "url("} {
		if strings.Contains(page, banned) {
			t.Errorf("page references an external asset (%q)", banned)
		}
	}
}

// TestDashboardDataAgreesWithStats is the agreement smoke test: the
// dashboard document embeds the same telemetry Snapshot GET /stats
// encodes, so with no traffic between the two requests the numbers must
// agree exactly.
func TestDashboardDataAgreesWithStats(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	req := AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluster", K: 4}}
	// Two identical jobs: the second is a cache hit, so both the hit and
	// miss counters are nonzero and a stale copy would show.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/anonymize", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, resp.StatusCode, body)
		}
		if st := pollDone(t, ts.URL, body["job"].(string)); st != StatusDone {
			t.Fatalf("job %d ended %s", i, st)
		}
	}

	_, stats := getJSON(t, ts.URL+"/stats")
	code, dash := getJSON(t, ts.URL+"/dashboard/data")
	if code != http.StatusOK {
		t.Fatalf("GET /dashboard/data: %d", code)
	}
	if dash["ready"] != true {
		t.Error("dashboard data says not ready on a ready server")
	}

	for _, fam := range []string{"jobs", "cache", "registry", "streaming"} {
		sv, dv := stats[fam].(map[string]any), dash[fam].(map[string]any)
		for k, want := range sv {
			if got := dv[k]; got != want {
				t.Errorf("%s.%s: dashboard %v, stats %v", fam, k, got, want)
			}
		}
	}
	// The counts map omits zero states, so queued may be absent entirely.
	jobs := dash["jobs"].(map[string]any)
	queued, _ := jobs["queued"].(float64)
	if qd := dash["queue_depth"].(float64); qd != queued {
		t.Errorf("queue_depth %v != jobs.queued %v", qd, queued)
	}
	if hits := dash["cache"].(map[string]any)["hits"].(float64); hits < 1 {
		t.Errorf("cache hits = %v, want >= 1 (second job was identical)", hits)
	}

	charts := dash["charts"].(map[string]any)
	for _, name := range []string{"jobs", "queue", "phases", "cache"} {
		svg, _ := charts[name].(string)
		if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Errorf("chart %q is not an SVG document: %.60q", name, svg)
		}
	}
	if _, hasStore := dash["store"]; hasStore {
		t.Error("memory-only server reports a store section")
	}
}

// TestDashHistorySampling pins the history ring's bounds: samples closer
// than dashSampleMin collapse, and the ring never exceeds dashWindow.
func TestDashHistorySampling(t *testing.T) {
	d := newDashHistory()
	base := time.Now()
	d.observe(dashSample{at: base})
	d.observe(dashSample{at: base.Add(100 * time.Millisecond)}) // too soon: dropped
	if got := len(d.series()); got != 1 {
		t.Fatalf("series after sub-second sample: %d entries, want 1", got)
	}
	for i := 1; i <= dashWindow+10; i++ {
		d.observe(dashSample{at: base.Add(time.Duration(i) * time.Second), snap: Snapshot{Jobs: map[Status]int{StatusQueued: i}}})
	}
	hist := d.series()
	if len(hist) != dashWindow {
		t.Fatalf("ring holds %d samples, want %d", len(hist), dashWindow)
	}
	// Chronological order, newest last.
	for i := 1; i < len(hist); i++ {
		if !hist[i].at.After(hist[i-1].at) {
			t.Fatalf("series out of order at %d", i)
		}
	}
	if got := hist[len(hist)-1].snap.Jobs[StatusQueued]; got != dashWindow+10 {
		t.Fatalf("newest sample queued = %d, want %d", got, dashWindow+10)
	}
}

// TestTelemetryViewsConcurrent renders the three telemetry views from
// several goroutines while a job runs. The dashboard history keeps the
// snapshots it rendered and later requests chart them, so under -race
// this checks that a Snapshot is never written after it is taken.
func TestTelemetryViewsConcurrent(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, _ := patientsJSON(t)
	_, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{Dataset: dsJSON, Config: ConfigRequest{Algo: "cluster", K: 3}})
	var wg sync.WaitGroup
	for _, path := range []string{"/stats", "/metrics", "/dashboard/data", "/dashboard/data"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d", path, resp.StatusCode)
				}
			}
		}(path)
	}
	wg.Wait()
	if st := pollDone(t, ts.URL, body["job"].(string)); st != StatusDone {
		t.Fatalf("job ended %s", st)
	}
}
