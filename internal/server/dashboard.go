package server

import (
	"net/http"
	"sort"
	"sync"
	"time"

	_ "embed"

	"secreta/internal/plot"
)

// GET /dashboard is the embedded live operator dashboard: one self-
// contained HTML page (go:embed, zero external assets) that polls
// GET /dashboard/data — the telemetry Snapshot behind /stats and /metrics
// (telemetry.go), plus a short sparkline history sampled from it and
// charts pre-rendered server-side as SVG via internal/plot. The page ships no chart library; its only script is a
// dozen lines of inline fetch-and-insert. Both routes sit behind the
// readiness gate like every other data route.

//go:embed dashboard.html
var dashboardHTML []byte

// dashWindow bounds the sparkline history: at the 1/s sampling floor,
// three minutes of trend — enough to see a queue building or a phase
// regressing, small enough to be O(1) per server.
const dashWindow = 180

// dashSampleMin is the minimum spacing between stored samples; faster
// polls reuse the last stored point so N dashboards don't multiply the
// history's time resolution.
const dashSampleMin = time.Second

// dashSample is one point of dashboard history: the Snapshot one
// /dashboard/data request rendered, and when.
type dashSample struct {
	at   time.Time
	snap Snapshot
}

// dashHistory is a bounded ring of dashboard samples.
type dashHistory struct {
	mu      sync.Mutex
	samples []dashSample
	next    int
	lastAt  time.Time
}

func newDashHistory() *dashHistory {
	return &dashHistory{}
}

// observe stores the sample unless the last stored one is younger than
// dashSampleMin.
func (d *dashHistory) observe(s dashSample) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.lastAt.IsZero() && s.at.Sub(d.lastAt) < dashSampleMin {
		return
	}
	d.lastAt = s.at
	if len(d.samples) < dashWindow {
		d.samples = append(d.samples, s)
		return
	}
	d.samples[d.next] = s
	d.next = (d.next + 1) % dashWindow
}

// series returns the stored samples in chronological order.
func (d *dashHistory) series() []dashSample {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]dashSample, 0, len(d.samples))
	out = append(out, d.samples[d.next:]...)
	out = append(out, d.samples[:d.next]...)
	return out
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(dashboardHTML)
}

// dashboardData is the GET /dashboard/data document: the telemetry
// Snapshot (the /stats fields) plus the page's own keys.
type dashboardData struct {
	Snapshot
	GeneratedAt string            `json:"generated_at"`
	Ready       bool              `json:"ready"`
	QueueDepth  int               `json:"queue_depth"`
	Slots       slotsView         `json:"slots"`
	Charts      map[string]string `json:"charts"`
}

// handleDashboardData renders the operator view from one Snapshot: the
// tables and the newest chart point come from the same read, so the page
// agrees with itself and with a concurrently scraped /stats, modulo
// traffic in between.
func (s *Server) handleDashboardData(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	snap := s.snapshot()
	s.dash.observe(dashSample{at: now, snap: snap})
	hist := s.dash.series()
	writeJSON(w, http.StatusOK, dashboardData{
		Snapshot:    snap,
		GeneratedAt: now.UTC().Format(time.RFC3339Nano),
		Ready:       snap.Ready,
		QueueDepth:  snap.Jobs[StatusQueued],
		Slots:       snap.Slots,
		Charts: map[string]string{
			"jobs":   jobsChart(snap.Jobs).SVG(440, 230),
			"queue":  queueChart(hist).SVG(440, 230),
			"phases": phasesChart(hist).SVG(440, 230),
			"cache":  cacheChart(hist).SVG(440, 230),
		},
	})
}

// jobsChart renders the current job-table population by state.
func jobsChart(counts map[Status]int) *plot.Chart {
	labels := make([]string, len(jobStates))
	values := make([]float64, len(jobStates))
	for i, st := range jobStates {
		labels[i] = string(st)
		values[i] = float64(counts[st])
	}
	return plot.NewBar("Jobs by state", "", "jobs", labels, values)
}

// dashXs converts sample timestamps to "seconds ago" (<= 0, now at 0) so
// the trend charts share a time axis without absolute-clock tick labels.
func dashXs(hist []dashSample) []float64 {
	if len(hist) == 0 {
		return nil
	}
	last := hist[len(hist)-1].at
	xs := make([]float64, len(hist))
	for i, h := range hist {
		xs[i] = -last.Sub(h.at).Seconds()
	}
	return xs
}

// queueChart renders queue depth and running jobs over the history
// window.
func queueChart(hist []dashSample) *plot.Chart {
	xs := dashXs(hist)
	queued := make([]float64, len(hist))
	running := make([]float64, len(hist))
	for i, h := range hist {
		queued[i] = float64(h.snap.Jobs[StatusQueued])
		running[i] = float64(h.snap.Jobs[StatusRunning])
	}
	return plot.NewLine("Queue depth", "seconds ago", "jobs",
		plot.Series{Label: "queued", Xs: xs, Ys: queued},
		plot.Series{Label: "running", Xs: xs, Ys: running},
	)
}

// dashMaxPhases caps the phase sparkline series count so a server that has
// seen many distinct phase names stays readable.
const dashMaxPhases = 6

// phasesChart renders per-phase p95 latency sparklines with a p50..p95
// band, one series per phase (alphabetical, capped at dashMaxPhases).
func phasesChart(hist []dashSample) *plot.Chart {
	nameSet := make(map[string]bool)
	for _, h := range hist {
		for n := range h.snap.Phases {
			nameSet[n] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > dashMaxPhases {
		names = names[:dashMaxPhases]
	}
	xs := dashXs(hist)
	series := make([]plot.Series, 0, len(names))
	for _, n := range names {
		ys := make([]float64, len(hist))
		lo := make([]float64, len(hist))
		for i, h := range hist {
			pv := h.snap.Phases[n]
			ys[i] = pv.P95ms
			lo[i] = pv.P50ms
		}
		series = append(series, plot.Series{Label: n, Xs: xs, Ys: ys, Lo: lo, Hi: ys})
	}
	return plot.NewLine("Phase latency p95 (band: p50..p95, ms)", "seconds ago", "ms", series...)
}

// cacheChart renders the result-cache hit rate (percent of cache-backed
// answers served without compute) over the history window.
func cacheChart(hist []dashSample) *plot.Chart {
	xs := dashXs(hist)
	rate := make([]float64, len(hist))
	streamsActive := make([]float64, len(hist))
	for i, h := range hist {
		if c := h.snap.Cache; c.Hits+c.Misses > 0 {
			rate[i] = float64(c.Hits) / float64(c.Hits+c.Misses) * 100
		}
		streamsActive[i] = float64(h.snap.Streaming.Active)
	}
	return plot.NewLine("Cache hit rate (%) / active streams", "seconds ago", "",
		plot.Series{Label: "hit %", Xs: xs, Ys: rate},
		plot.Series{Label: "streams", Xs: xs, Ys: streamsActive},
	)
}
