package server

import (
	"net/http"

	"secreta/internal/engine"
	"secreta/internal/registry"
	"secreta/internal/store"
)

// One telemetry model, three views. (*Server).snapshot reads every
// counter source once into a Snapshot; GET /stats is its JSON encoding,
// GET /metrics renders it through the family table in metrics.go, and
// GET /dashboard/data embeds it (dashboard.go). No view reads a counter
// source itself, so the three agree by construction.

// Snapshot is one read of every server counter. Its JSON encoding is the
// GET /stats document, so fields are declared in that document's
// alphabetical key order. The conditional blocks are nil, and omitted,
// unless their subsystem runs: store, degraded and recovery need a data
// directory, tenants a tenants file, gc a data-directory byte cap.
type Snapshot struct {
	Cache     engine.CacheStats    `json:"cache"`
	Degraded  *degradedView        `json:"degraded,omitempty"`
	GC        *gcView              `json:"gc,omitempty"`
	Jobs      map[Status]int       `json:"jobs"`
	Phases    map[string]PhaseView `json:"phases"`
	Recovery  *recoveryInfo        `json:"recovery,omitempty"`
	Registry  registry.Stats       `json:"registry"`
	Store     *store.Stats         `json:"store,omitempty"`
	Streaming streamingView        `json:"streaming"`
	Tenants   []TenantView         `json:"tenants,omitempty"`

	// Admission state: /metrics and the dashboard show it, /stats does not.
	Ready bool      `json:"-"`
	Slots slotsView `json:"-"`
}

// streamingView counts NDJSON result deliveries.
type streamingView struct {
	Active            int64  `json:"active"`
	ClientDisconnects uint64 `json:"client_disconnects"`
	Served            uint64 `json:"served"`
}

// slotsView is the job slots' occupancy.
type slotsView struct {
	InUse int `json:"in_use"`
	Total int `json:"total"`
}

// snapshot is the only telemetry reader of the server's counter sources.
func (s *Server) snapshot() Snapshot {
	jobs, byTenant := s.jobs.counts()
	snap := Snapshot{
		Cache:    s.cache.Stats(),
		Jobs:     jobs,
		Phases:   s.phases.snapshot(),
		Registry: s.registry.Stats(),
		Streaming: streamingView{
			Active:            s.streams.active.Load(),
			ClientDisconnects: s.streams.disconnects.Load(),
			Served:            s.streams.served.Load(),
		},
		Ready: s.ready.Load(),
		Slots: s.admission.slots(),
	}
	if s.st != nil {
		st, d := s.st.Stats(), s.degraded.view()
		s.recMu.Lock()
		rec := s.recovery
		s.recMu.Unlock()
		snap.Store, snap.Degraded, snap.Recovery = &st, &d, &rec
	}
	if s.tenants != nil {
		snap.Tenants = s.tenants.views(byTenant)
	}
	if s.gc != nil {
		g := s.gc.view()
		snap.GC = &g
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}
