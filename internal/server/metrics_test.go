package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseExposition validates Prometheus text-format 0.0.4 structure and
// returns every sample keyed by its full series name (`name{labels}`).
// It enforces: HELP/TYPE line grammar, TYPE declared before a family's
// first sample, parseable float values, and no duplicate series.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					t.Fatalf("line %d: unknown metric type %q", ln+1, fields[3])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value %q", ln+1, line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, val, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set %q", ln+1, series)
			}
			name = name[:i]
		}
		family := name
		if _, ok := types[family]; !ok {
			family = strings.TrimSuffix(strings.TrimSuffix(family, "_sum"), "_count")
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, series)
		}
		if (strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")) &&
			name != family && typ != "summary" && typ != "histogram" {
			t.Fatalf("line %d: %q suffix on non-summary family %q", ln+1, name, family)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		v, _ := strconv.ParseFloat(val, 64)
		samples[series] = v
	}
	return samples
}

func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// TestMetricsEndToEnd runs a job lifecycle and asserts the scrape is
// structurally valid and numerically agrees with GET /stats.
func TestMetricsEndToEnd(t *testing.T) {
	ts := newTestServer(t)

	// A fresh server: ready, zero-filled job states for every status.
	m := scrape(t, ts.URL)
	if m["secreta_ready"] != 1 {
		t.Fatalf("secreta_ready = %v, want 1", m["secreta_ready"])
	}
	for _, st := range jobStates {
		series := `secreta_jobs{state="` + string(st) + `"}`
		if v, ok := m[series]; !ok || v != 0 {
			t.Fatalf("%s = %v (present=%v), want 0 on a fresh server", series, v, ok)
		}
	}

	// Run one job to completion and stream its result so the job, phase,
	// cache, and streaming counters all move.
	dsJSON, _ := patientsJSON(t)
	resp, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster+apriori/rmerger", K: 4, M: 2, Delta: 0.5},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, body)
	}
	id := body["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job finished as %s", st)
	}
	sresp, err := http.Get(ts.URL + "/jobs/" + id + "/result/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()

	m = scrape(t, ts.URL)
	_, stats := getJSON(t, ts.URL+"/stats")

	jobs := stats["jobs"].(map[string]any)
	for _, st := range jobStates {
		want := 0.0
		if n, ok := jobs[string(st)]; ok {
			want = n.(float64)
		}
		series := `secreta_jobs{state="` + string(st) + `"}`
		if m[series] != want {
			t.Errorf("%s = %v, /stats says %v", series, m[series], want)
		}
	}
	if m[`secreta_jobs{state="done"}`] < 1 {
		t.Errorf("done gauge = %v, want >= 1", m[`secreta_jobs{state="done"}`])
	}

	cache := stats["cache"].(map[string]any)
	if m["secreta_cache_hits_total"] != cache["hits"].(float64) {
		t.Errorf("cache hits: metrics %v vs stats %v", m["secreta_cache_hits_total"], cache["hits"])
	}
	if m["secreta_cache_misses_total"] != cache["misses"].(float64) {
		t.Errorf("cache misses: metrics %v vs stats %v", m["secreta_cache_misses_total"], cache["misses"])
	}

	streaming := stats["streaming"].(map[string]any)
	if m["secreta_streaming_served_total"] != streaming["served"].(float64) {
		t.Errorf("streams served: metrics %v vs stats %v",
			m["secreta_streaming_served_total"], streaming["served"])
	}
	if m["secreta_streaming_served_total"] < 1 {
		t.Errorf("streams served = %v, want >= 1 after streaming a result",
			m["secreta_streaming_served_total"])
	}

	// The run recorded phase timings: every phase must expose the full
	// summary (two quantiles, _sum, _count) and agree with /stats counts.
	phases := stats["phases"].(map[string]any)
	if len(phases) == 0 {
		t.Fatal("/stats shows no phases after a completed job")
	}
	for name, v := range phases {
		pv := v.(map[string]any)
		base := `secreta_phase_latency_seconds`
		if _, ok := m[base+`{phase="`+name+`",quantile="0.5"}`]; !ok {
			t.Errorf("phase %s: missing 0.5 quantile", name)
		}
		if _, ok := m[base+`{phase="`+name+`",quantile="0.95"}`]; !ok {
			t.Errorf("phase %s: missing 0.95 quantile", name)
		}
		if got := m[base+`_count{phase="`+name+`"}`]; got != pv["count"].(float64) {
			t.Errorf("phase %s count: metrics %v vs stats %v", name, got, pv["count"])
		}
		if sum := m[base+`_sum{phase="`+name+`"}`]; sum <= 0 {
			t.Errorf("phase %s sum = %v, want > 0", name, sum)
		}
	}

	if m["secreta_job_slots"] <= 0 {
		t.Errorf("secreta_job_slots = %v, want > 0", m["secreta_job_slots"])
	}
}

// TestMetricsReadinessGate: while replay is pending the scrape answers
// 503 like every data route — a scraper must see the target as down, not
// as a healthy server with zero jobs.
func TestMetricsReadinessGate(t *testing.T) {
	s := mustNew(t, context.Background(), Options{Workers: 1})
	s.ready.Store(false)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /metrics while not ready: status %d, want 503", rec.Code)
	}
}

// TestExpositionLabelEscaping pins the label-value escapes of format
// 0.0.4: backslash, double quote and newline are each escaped exactly
// once, and the value is wrapped in literal quotes.
func TestExpositionLabelEscaping(t *testing.T) {
	fam := metricFamily{name: "x", typ: "gauge", help: "h", samples: func(*Snapshot) []promSample {
		return []promSample{{labels: []string{"l", "a\"b\\c\nd", "m", "plain"}, value: 1}}
	}}
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	writeExposition(w, []metricFamily{fam}, &Snapshot{})
	w.Flush()
	want := "# HELP x h\n# TYPE x gauge\n" + `x{l="a\"b\\c\nd",m="plain"} 1` + "\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n got %q\nwant %q", sb.String(), want)
	}
}

// TestMetricFamiliesDocumented is the docs gate for /metrics: every
// family in the table must be named in the operations runbook's
// "Metrics & scraping" reference.
func TestMetricFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(metricFamilies) == 0 {
		t.Fatal("metricFamilies is empty")
	}
	for _, f := range metricFamilies {
		if !strings.Contains(string(doc), f.name) {
			t.Errorf("metric family %s is exported but not mentioned in docs/OPERATIONS.md", f.name)
		}
	}
}

// TestFaultStatsFieldsDocumented pins, by name, the GET /stats fields an
// operator reaches for during a disk incident: the runbook's "/stats
// field reference" must keep naming them.
func TestFaultStatsFieldsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"trim_errors", "io_retries", "degraded", "orphans_swept", "disk_transient"} {
		if !strings.Contains(string(doc), field) {
			t.Errorf("/stats field %s is not mentioned in docs/OPERATIONS.md", field)
		}
	}
}
