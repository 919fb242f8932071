package server

import "net/http"

// gate is the set of gate properties a route row names. The zero value,
// which a request that matches no row gets, is the strictest: refused
// during replay, tenant key required.
type gate uint8

const (
	// beforeReady rows answer while journal replay runs.
	beforeReady gate = 1 << iota
	// open rows need no API key in multi-tenant mode: health, operator
	// telemetry and the dashboard are deployment surfaces, not tenant data.
	open
	// metered rows spend a tenant token. Only POSTs do: pollers must not
	// be throttled into missing their own completions.
	metered
	// write rows change state the journal must record, so they are
	// refused in degraded read-only mode (see degraded.go).
	write
)

// route is one row of the API: the ServeMux pattern, the handler, and its
// gates.
type route struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
	gates   gate
}

// routes is the secreta-serve API. New registers every row on the mux,
// Handler gates each request by its row, and docs/API.md must name every
// path (TestRoutesDocumented).
var routes = []route{
	{"POST /datasets", (*Server).handleDatasetUpload, metered | write},
	{"GET /datasets", (*Server).handleDatasetList, 0},
	{"GET /datasets/{id}", (*Server).handleDatasetInfo, 0},
	{"DELETE /datasets/{id}", (*Server).handleDatasetDelete, write},
	{"POST /anonymize", handleSubmit("anonymize"), metered | write},
	{"POST /evaluate", handleSubmit("evaluate"), metered | write},
	{"POST /compare", handleSubmit("compare"), metered | write},
	{"GET /jobs", (*Server).handleJobList, 0},
	{"GET /jobs/{id}", (*Server).handleJobStatus, 0},
	{"GET /jobs/{id}/result", (*Server).handleJobResult, 0},
	{"GET /jobs/{id}/result/stream", (*Server).handleJobResultStream, 0},
	{"GET /jobs/{id}/trace", (*Server).handleJobTrace, 0},
	{"DELETE /jobs/{id}", (*Server).handleJobCancel, write},
	{"GET /healthz", (*Server).handleHealth, beforeReady | open},
	{"GET /stats", (*Server).handleStats, open},
	{"GET /metrics", (*Server).handleMetrics, open},
	{"GET /dashboard", (*Server).handleDashboard, open},
	{"GET /dashboard/data", (*Server).handleDashboardData, open},
}

// Handler returns the routed HTTP handler. It applies the gates of the
// request's row in order: readiness (admitting a job before replay has
// re-queued its predecessors would reorder history), the tenant API key
// (401), the token bucket (429) and degraded mode (503). The mux then
// serves the request, or answers 404 or 405 when no row matches.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// ServeMux.Handler finds the row's pattern but sets no path
		// values, so ServeMux.ServeHTTP serves the request below.
		_, pattern := s.mux.Handler(r)
		g := s.gates[pattern]
		if g&beforeReady == 0 && !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": "server is replaying its journal; retry shortly",
				"ready": false,
			})
			return
		}
		if g&open == 0 {
			var done bool
			if r, done = s.authGate(w, r); done {
				return
			}
		}
		if g&metered != 0 && s.rateGate(w, r) {
			return
		}
		if g&write != 0 && s.gateWrite(w) {
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}
