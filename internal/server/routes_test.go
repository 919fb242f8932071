package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secreta/internal/store"
)

// TestRoutesDocumented is the docs gate for the API: docs/API.md must
// spell every route's path exactly as the table registers it, {id}
// wildcards included.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("the route table is empty")
	}
	for _, rt := range routes {
		_, path, _ := strings.Cut(rt.pattern, " ")
		if !strings.Contains(string(doc), path) {
			t.Errorf("%s is served but docs/API.md does not name %s", rt.pattern, path)
		}
	}
}

// TestRouteTableWriteRows pins which rows are writes: every route that is
// not a GET changes state the journal must record, so it is refused while
// degraded, and only POSTs spend rate tokens.
func TestRouteTableWriteRows(t *testing.T) {
	for _, rt := range routes {
		method, _, _ := strings.Cut(rt.pattern, " ")
		if got, want := rt.gates&write != 0, method != http.MethodGet; got != want {
			t.Errorf("%s: write=%v, want %v", rt.pattern, got, want)
		}
		if got, want := rt.gates&metered != 0, method == http.MethodPost; got != want {
			t.Errorf("%s: metered=%v, want %v", rt.pattern, got, want)
		}
	}
}

// gateCase is one request the gate test sends: a route's row, or one no
// row matches (a zero gate set).
type gateCase struct {
	name, method, path string
	gates              gate
}

// gateCases is a request for every row, with {id} naming a job or
// dataset no server has, plus an unknown path (404) and a known path
// under the wrong method (405).
func gateCases() []gateCase {
	cases := []gateCase{
		{"unmatched GET /nope", http.MethodGet, "/nope", 0},
		{"unmatched POST /jobs", http.MethodPost, "/jobs", 0},
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		cases = append(cases, gateCase{rt.pattern, method, strings.ReplaceAll(path, "{id}", "nope"), rt.gates})
	}
	return cases
}

// TestRouteGates drives every gate over every row of the route table, on
// a memory-only single-tenant server and on a durable multi-tenant one:
// a route can only skip a gate by saying so in its row.
func TestRouteGates(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		checkRouteGates(t, mustNew(t, context.Background(), Options{Workers: 1}), "")
	})
	t.Run("durable-tenants", func(t *testing.T) {
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
			Workers: 1,
			Store:   st,
			Tenants: []TenantConfig{{ID: "acme", Key: "k-acme", RatePerSec: 1, Burst: 1000}},
			// A frozen clock: the bucket never refills, so every spent
			// token shows.
			Now: func() time.Time { return telemetryClock },
			// The probe must not re-arm the latch the test sets by hand.
			DegradedProbeInterval: time.Hour,
		})
		deadline := time.Now().Add(30 * time.Second)
		for !s.ready.Load() {
			if time.Now().After(deadline) {
				t.Fatal("server never became ready")
			}
			time.Sleep(time.Millisecond)
		}
		checkRouteGates(t, s, "k-acme")
	})
}

// checkRouteGates runs the gate matrix against s. key is the tenant API
// key ("" on a single-tenant server).
func checkRouteGates(t *testing.T, s *Server, key string) {
	h := s.Handler()
	serve := func(c gateCase, key string) *httptest.ResponseRecorder {
		return serveRecorded(t, h, c.method, c.path, key, []byte("{}"))
	}

	s.ready.Store(false)
	for _, c := range gateCases() {
		want := http.StatusServiceUnavailable
		if c.gates&beforeReady != 0 {
			want = http.StatusOK
		}
		if rec := serve(c, key); rec.Code != want {
			t.Errorf("%s during replay: status %d, want %d", c.name, rec.Code, want)
		}
	}
	s.ready.Store(true)

	for _, c := range gateCases() {
		want := s.tenants != nil && c.gates&open == 0
		if rec := serve(c, ""); (rec.Code == http.StatusUnauthorized) != want {
			t.Errorf("%s without a key: status %d, want 401=%v", c.name, rec.Code, want)
		}
	}

	s.degraded.enter("injected fault")
	for _, c := range gateCases() {
		rec := serve(c, key)
		if c.gates&write == 0 {
			if rec.Code == http.StatusServiceUnavailable {
				t.Errorf("%s while degraded: status 503, reads must stay live", c.name)
			}
			continue
		}
		var body map[string]any
		json.Unmarshal(rec.Body.Bytes(), &body)
		if rec.Code != http.StatusServiceUnavailable || body["degraded"] != true || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s while degraded: status %d Retry-After %q body %s, want a degraded 503",
				c.name, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	s.degraded.clear()

	if s.tenants == nil {
		return
	}
	bucket := s.tenants.byID["acme"]
	tokens := func() float64 {
		bucket.mu.Lock()
		defer bucket.mu.Unlock()
		if bucket.lastRefill.IsZero() {
			return bucket.burst()
		}
		return bucket.tokens
	}
	for _, c := range gateCases() {
		before := tokens()
		serve(c, key)
		want := 0.0
		if c.gates&metered != 0 {
			want = 1
		}
		if spent := before - tokens(); spent != want {
			t.Errorf("%s spent %v tokens, want %v", c.name, spent, want)
		}
	}
}
