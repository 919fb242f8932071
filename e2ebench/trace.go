package main

import (
	"strings"
	"time"

	"secreta/internal/obs"
)

// jobTree assembles one job's span tree on the wall clock: the client's
// submit and fetch, the server's job trace (read from GET
// /jobs/{id}/trace) grafted under the same root, and the poll gap from the
// server span ending to the poll that saw it.
func jobTree(s *jobSample) *span {
	root := &span{name: "job", iv: interval{s.submitStart, s.fetchEnd}}
	root.children = append(root.children, &span{name: "client.submit", iv: interval{s.submitStart, s.submitEnd}})
	if s.trace != nil && s.trace.Trace != nil {
		if t0, err := time.Parse(time.RFC3339Nano, s.trace.StartedAt); err == nil {
			srv := graft(s.trace.Trace, t0.UnixNano())
			srv.name = "server.job"
			root.children = append(root.children, srv,
				&span{name: "client.poll_gap", iv: interval{srv.iv.end, max(srv.iv.end, s.fetchStart)}})
		}
	}
	root.children = append(root.children, &span{name: "client.fetch", iv: interval{s.fetchStart, s.fetchEnd}})
	return root
}

func graft(v *obs.SpanView, t0 int64) *span {
	start := t0 + int64(v.StartMS*1e6)
	sp := &span{name: v.Name, iv: interval{start, start + int64(v.DurationMS*1e6)}}
	for _, c := range v.Children {
		sp.children = append(sp.children, graft(c, t0))
	}
	return sp
}

// phaseNames are the algorithm phases the benchmark reports by name; a
// phase outside the list lands in phase.other_ms.
var phaseNames = []string{
	"setup", "generalize", "recode", "cluster", "lattice search", "specialize",
	"partition", "anonymize parts", "verify", "relational", "merge", "transaction",
}

func phaseMetric(name string) string {
	for _, p := range phaseNames {
		if p == name {
			return "phase." + strings.ReplaceAll(name, " ", "_") + "_ms"
		}
	}
	return "phase.other_ms"
}

// spanMetrics maps span names to the per-layer metric their self time
// feeds.
var spanMetrics = map[string]string{
	"client.submit":   "client.submit_ms",
	"client.fetch":    "client.fetch_ms",
	"client.poll_gap": "client.poll_gap_ms",
	"queue_wait":      "server.queue_wait_ms",
	"dataset_load":    "server.dataset_load_ms",
	"execute":         "server.execute_self_ms",
	"persist":         "server.persist_ms",
	"run":             "engine.run_ms",
	"evaluate":        "engine.evaluate_ms",
}

// metricFor names the metric a span's self time feeds, or "" for the two
// roots (the client's job and the server's job span).
func metricFor(sp, parent *span) string {
	if m, ok := spanMetrics[sp.name]; ok {
		return m
	}
	if parent != nil && parent.name == "run" {
		return phaseMetric(sp.name)
	}
	return ""
}

// jobLayers is one job's span-derived breakdown.
type jobLayers struct {
	selfMS map[string]float64 // summed self time per metric
	// coverage is the share of the job's turnaround that at least one
	// named span covers; the rest is time only the two roots account for.
	coverage float64
	// parallelism is the summed duration of the job's run spans over its
	// execute span (0 without both).
	parallelism float64
}

func layersOf(s *jobSample) jobLayers {
	root := jobTree(s)
	jl := jobLayers{selfMS: make(map[string]float64)}
	var named []interval
	var runs, exec int64
	root.walk(func(sp, parent *span) {
		switch sp.name {
		case "run":
			runs += sp.iv.dur()
		case "execute":
			exec += sp.iv.dur()
		}
		if m := metricFor(sp, parent); m != "" {
			jl.selfMS[m] += float64(sp.self()) / 1e6
			named = append(named, sp.iv)
		}
	})
	jl.coverage = ratio(float64(covered(root.iv, named)), float64(root.iv.dur()))
	jl.parallelism = ratio(float64(runs), float64(exec))
	return jl
}
