package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"secreta/internal/store"
	"secreta/internal/timing"
)

// The telemetry goldens pin GET /stats and GET /metrics byte-for-byte for
// two deterministic server states. No real job runs: phase timings are
// recorded synthetically, job-table entries are restored from fixed
// records, and every other counter moves only through fixed uploads. The
// tenant buckets and the GC sweeper read an injected clock. Regenerate
// with `go test ./internal/server -run TestTelemetryGolden -update`.

// wallClockFields matches the values that depend on the real clock even
// with an injected one: the replay duration, the journal snapshot's age,
// and two byte sizes — the WAL and the GC's measured disk usage — that
// include RFC 3339 timestamps written by the journal with trailing zeros
// trimmed, so they vary by a few bytes run to run. Their values are
// replaced by 0 before comparison.
var wallClockFields = regexp.MustCompile(
	`("(?:duration_s|last_snapshot_age_s|usage_bytes|wal_bytes)": |secreta_(?:gc_usage|store_wal)_bytes )[-+.0-9eE]+`)

// telemetryClock is the fixed instant the tenant rate buckets and the GC
// sweeper see.
var telemetryClock = time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)

// serveRecorded runs one request through the full handler chain.
func serveRecorded(t *testing.T, h http.Handler, method, path, key string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// seedTelemetry moves every counter family that can move without running
// a job: fixed phase durations (including values whose ms and s renderings
// are both non-trivial floats), restored jobs in several states, and
// stream counters.
func seedTelemetry(s *Server, tenants ...string) {
	for i := 1; i <= 40; i++ {
		s.phases.record([]timing.Phase{
			{Name: "relational", Duration: time.Duration(i) * 1234567 * time.Nanosecond},
			{Name: "merge", Duration: time.Duration(41-i) * 333 * time.Microsecond},
		})
	}
	s.phases.record([]timing.Phase{{Name: "transaction", Duration: 7 * time.Millisecond}})
	if len(tenants) == 0 {
		tenants = []string{""}
	}
	states := []Status{StatusDone, StatusDone, StatusFailed, StatusCancelled, StatusTimedOut, StatusQueued}
	for i, st := range states {
		s.jobs.restore(store.JobRecord{
			ID:     "j-" + string(rune('a'+i)),
			Seq:    i + 1,
			Kind:   "anonymize",
			Status: string(st),
			Tenant: tenants[i%len(tenants)],
		}, nil, nil)
	}
	s.streams.active.Add(1)
	s.streams.served.Add(3)
	s.streams.disconnects.Add(2)
}

// checkTelemetryGolden captures /stats and /metrics and compares each to
// testdata/<name>.stats.json and testdata/<name>.metrics.txt.
func checkTelemetryGolden(t *testing.T, h http.Handler, name string) {
	t.Helper()
	for _, c := range []struct{ path, file string }{
		{"/stats", name + ".stats.json"},
		{"/metrics", name + ".metrics.txt"},
	} {
		rec := serveRecorded(t, h, http.MethodGet, c.path, "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", c.path, rec.Code, rec.Body)
		}
		got := wallClockFields.ReplaceAll(rec.Body.Bytes(), []byte("${1}0"))
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s at %s", c.path, path, firstDiff(got, want))
		}
	}
}

// TestTelemetryGoldenMemory pins both documents for a memory-only,
// single-tenant server: no store, degraded, recovery, tenants or gc
// blocks.
func TestTelemetryGoldenMemory(t *testing.T) {
	s := mustNew(t, context.Background(), Options{Workers: 1, MaxConcurrentJobs: 3})
	h := s.Handler()
	patients, _ := patientsJSON(t)
	for _, raw := range [][]byte{patients, smallDatasetJSON(t, "g"), patients} {
		if rec := serveRecorded(t, h, http.MethodPost, "/datasets", "", raw); rec.Code/100 != 2 {
			t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
		}
	}
	seedTelemetry(s)
	checkTelemetryGolden(t, h, "telemetry_memory")
}

// TestTelemetryGoldenDurable pins both documents for a durable server
// with two tenants and the GC sweeper on: every conditional block is
// present, the tenant counters include a rate-limit refusal and a
// stored-bytes quota rejection, and one sweep has run at the fixed clock.
func TestTelemetryGoldenDurable(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		st.Close()
	})
	s := mustNew(t, ctx, Options{
		Workers:           1,
		MaxConcurrentJobs: 2,
		Store:             st,
		Now:               func() time.Time { return telemetryClock },
		DataMaxBytes:      1 << 30,
		GCInterval:        time.Hour,
		Tenants: []TenantConfig{
			{ID: "acme", Key: "k-acme", Weight: 3, RatePerSec: 0.5, Burst: 2},
			{ID: "beta", Key: "k-beta", MaxStoredBytes: 1},
		},
	})
	deadline := time.Now().Add(30 * time.Second)
	for !s.ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h := s.Handler()
	patients, _ := patientsJSON(t)
	uploads := []struct {
		key  string
		raw  []byte
		code int
	}{
		{"k-acme", patients, http.StatusCreated},
		{"k-acme", smallDatasetJSON(t, "d"), http.StatusCreated},
		{"k-acme", patients, http.StatusTooManyRequests}, // burst of 2 spent at a frozen clock
		{"k-beta", smallDatasetJSON(t, "q"), http.StatusForbidden},
	}
	for i, u := range uploads {
		if rec := serveRecorded(t, h, http.MethodPost, "/datasets", u.key, u.raw); rec.Code != u.code {
			t.Fatalf("upload %d: status %d, want %d: %s", i, rec.Code, u.code, rec.Body)
		}
	}
	s.sweepOnce()
	seedTelemetry(s, "acme", "beta", "acme")
	checkTelemetryGolden(t, h, "telemetry_durable")
}
