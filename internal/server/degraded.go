package server

import (
	"net/http"
	"sync"
	"time"

	"secreta/internal/faultfs"
)

// Degraded read-only mode: when a durable write the server cannot work
// around fails with a permanent (non-transient) storage error — a journal
// append, a WAL frame, a result-blob persist — the server stops accepting
// new write work instead of quietly dropping durability. Write routes
// (every POST and DELETE; see routes.go) answer 503 with Retry-After;
// everything already on disk or in memory (job polls, results, streams,
// stats) keeps serving. A background probe performs a full atomic
// write+read+remove against the data directory and re-arms writes the
// moment the disk recovers, so an operator fixing a full volume never has
// to restart the process.
//
// Transient errors (EINTR/EAGAIN, see faultfs.IsTransient) never trip
// degraded mode — the store's retry layer absorbs them, and one that
// escapes is surfaced to the client of the failing request only.

// DefaultDegradedProbeInterval is the default cadence of the recovery
// probe while the server is degraded.
const DefaultDegradedProbeInterval = 5 * time.Second

// degradedState is the server's write-arming latch. Entered by the
// persist paths, cleared only by a successful probe.
type degradedState struct {
	mu      sync.Mutex
	active  bool
	reason  string
	since   time.Time
	entered uint64 // lifetime count of healthy->degraded transitions
	probes  uint64 // lifetime count of recovery probes run
}

// degradedView is the JSON shape /healthz, /stats and the dashboard share.
type degradedView struct {
	Active bool `json:"active"`
	// Reason is the triggering error; Since the transition time.
	Reason string `json:"reason,omitempty"`
	Since  string `json:"since,omitempty"`
	// Entered counts healthy->degraded transitions; Probes the recovery
	// probes run.
	Entered uint64 `json:"entered_total"`
	Probes  uint64 `json:"probes_total"`
}

func (d *degradedState) view() degradedView {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := degradedView{Active: d.active, Entered: d.entered, Probes: d.probes}
	if d.active {
		v.Reason = d.reason
		v.Since = d.since.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// enter latches degraded mode; only the first caller of a healthy window
// records its reason. It reports whether this call made the transition.
func (d *degradedState) enter(reason string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.active {
		return false
	}
	d.active = true
	d.reason = reason
	d.since = time.Now()
	d.entered++
	return true
}

// clear re-arms writes. It reports whether the server was degraded.
func (d *degradedState) clear() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	was := d.active
	d.active = false
	d.reason = ""
	return was
}

// storeFault classifies one durable-write failure from a degraded-mode
// trigger point (journal append, WAL frame, result-blob persist): a
// transient error is the retry layer's business and never trips the
// latch; anything else flips the server read-only. where names the
// failing write in logs and /healthz.
func (s *Server) storeFault(where string, err error) {
	if err == nil || faultfs.IsTransient(err) {
		return
	}
	reason := where + ": " + err.Error()
	if s.degraded.enter(reason) {
		s.log().Error("permanent storage fault — entering degraded read-only mode",
			"where", where, "err", err)
	}
}

// gateWrite answers a write route's request while the server is
// degraded. It reports whether the request was consumed (the caller must
// return).
func (s *Server) gateWrite(w http.ResponseWriter) bool {
	v := s.degraded.view()
	if !v.Active {
		return false
	}
	w.Header().Set("Retry-After", "5")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":    "server is in degraded read-only mode: " + v.Reason,
		"degraded": true,
	})
	return true
}

// probeDurability runs one recovery probe: a full atomic sentinel
// write+read+remove through the store. On success the write path is
// re-armed. Returns true when the server is (now) healthy.
func (s *Server) probeDurability() bool {
	s.degraded.mu.Lock()
	s.degraded.probes++
	s.degraded.mu.Unlock()
	if err := s.st.ProbeWrite(); err != nil {
		s.log().Warn("degraded-mode probe failed; writes stay disabled", "err", err)
		return false
	}
	if s.degraded.clear() {
		s.log().Info("storage recovered — re-arming writes")
	}
	return true
}

// probeLoop drives recovery probes while the server is degraded, at the
// configured interval, until ctx ends. Healthy intervals cost one
// uncontended lock each.
func (s *Server) probeLoop() {
	interval := s.opts.DegradedProbeInterval
	if interval <= 0 {
		interval = DefaultDegradedProbeInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			if s.degraded.view().Active {
				s.probeDurability()
			}
		}
	}
}
