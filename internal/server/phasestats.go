package server

import (
	"sort"
	"sync"

	"secreta/internal/timing"
)

// phaseStats aggregates the per-phase timings job results carry
// (timing.Phases: "relational", "merge", "transaction", "recode", ...)
// into rolling p50/p95 per phase, surfaced by every telemetry view so a
// phase-level regression in a running server is observable without
// scraping job payloads. Samples come from real executions only — cache hits replay a
// stored result and would drag the percentiles toward zero.
type phaseStats struct {
	mu      sync.Mutex
	samples map[string][]float64 // phase -> ring of durations (seconds)
	next    map[string]int       // phase -> ring write position
	total   map[string]int64     // phase -> samples ever recorded
	sumSec  map[string]float64   // phase -> cumulative seconds ever recorded
}

// phaseWindow bounds the per-phase sample ring: big enough for stable
// percentiles, small enough that a long-lived server's stats memory stays
// flat.
const phaseWindow = 512

func newPhaseStats() *phaseStats {
	return &phaseStats{
		samples: make(map[string][]float64),
		next:    make(map[string]int),
		total:   make(map[string]int64),
		sumSec:  make(map[string]float64),
	}
}

// record folds one run's phase breakdown into the rings.
func (p *phaseStats) record(phases []timing.Phase) {
	if len(phases) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ph := range phases {
		sec := ph.Duration.Seconds()
		ring := p.samples[ph.Name]
		if len(ring) < phaseWindow {
			p.samples[ph.Name] = append(ring, sec)
		} else {
			ring[p.next[ph.Name]%phaseWindow] = sec
			p.next[ph.Name] = (p.next[ph.Name] + 1) % phaseWindow
		}
		p.total[ph.Name]++
		p.sumSec[ph.Name] += sec
	}
}

// PhaseView is one phase's aggregate timing. /stats prints the JSON
// fields; /metrics prints the seconds twins and the lifetime sum as a
// Prometheus summary.
type PhaseView struct {
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	// P50s and P95s are the same window quantiles in seconds; SumSec is
	// the lifetime total, so scrapers can derive rates across the window.
	P50s, P95s, SumSec float64 `json:"-"`
}

// snapshot computes nearest-rank percentiles over each phase's window,
// under one lock acquisition so the ms and seconds renderings of a phase
// always describe the same samples. Both come from the sorted window;
// seconds are never derived by dividing the ms value, which would change
// the shortest float rendering /metrics prints.
func (p *phaseStats) snapshot() map[string]PhaseView {
	p.mu.Lock()
	defer p.mu.Unlock()
	views := make(map[string]PhaseView, len(p.samples))
	for name, ring := range p.samples {
		if len(ring) == 0 {
			continue
		}
		sorted := append([]float64(nil), ring...)
		sort.Float64s(sorted)
		q50, q95 := percentile(sorted, 50), percentile(sorted, 95)
		views[name] = PhaseView{
			Count:  p.total[name],
			P50ms:  q50 * 1000,
			P95ms:  q95 * 1000,
			P50s:   q50,
			P95s:   q95,
			SumSec: p.sumSec[name],
		}
	}
	return views
}

// percentile is the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, pct int) float64 {
	rank := (len(sorted)*pct + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
