package server

import (
	"bufio"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"secreta/internal/store"
)

// GET /metrics: the server's operational counters in Prometheus text
// exposition format 0.0.4, hand-rendered (the repo takes no dependencies)
// from the same Snapshot GET /stats encodes as JSON. metricFamilies is the
// whole exposition as data: one row per family — name, type, help, and an
// accessor from *Snapshot to labelled samples — walked in order by
// writeExposition. Every family is emitted with # HELP / # TYPE headers,
// label values are escaped once, and ordering is deterministic so diffs
// of two scrapes are meaningful.
//
// The handler sits behind the readiness gate like every data route: while
// journal replay runs the server answers 503, which scrapers surface as a
// down target — exactly right, the server is not serving.

// promContentType is the exposition format version Prometheus expects.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promSample is one sample line: an optional name suffix (summary
// _sum/_count), label name/value pairs in emission order, and the value.
type promSample struct {
	suffix string
	labels []string // name, value, name, value, ...
	value  float64
}

// metricFamily is one row of the /metrics table. present gates the
// families of optional subsystems (nil: always emitted, headers included
// even when samples returns none).
type metricFamily struct {
	name, typ, help string
	present         func(*Snapshot) bool
	samples         func(*Snapshot) []promSample
}

// jobStates fixes the order /metrics reports job-state gauges in; every
// state appears on every scrape (zero-filled) so dashboards never see a
// series blink in and out.
var jobStates = []Status{
	StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled, StatusTimedOut,
}

func one[T int | int64 | uint64](v T) []promSample { return []promSample{{value: float64(v)}} }

func boolSample(b bool) []promSample {
	if b {
		return one(1)
	}
	return one(0)
}

func hasStore(s *Snapshot) bool   { return s.Store != nil }
func hasTenants(s *Snapshot) bool { return s.Tenants != nil }
func hasGC(s *Snapshot) bool      { return s.GC != nil }

// perTenant samples one TenantView field, labelled by tenant.
func perTenant[T int | int64 | uint64](f func(TenantView) T) func(*Snapshot) []promSample {
	return func(s *Snapshot) []promSample {
		out := make([]promSample, 0, len(s.Tenants))
		for _, tv := range s.Tenants {
			out = append(out, promSample{labels: []string{"tenant", tv.ID}, value: float64(f(tv))})
		}
		return out
	}
}

// blobKinds labels the durable blob kinds, in store.Stats order.
var blobKinds = []string{"datasets", "results", "result_streams", "traces", "result_cache"}

// perBlobKind samples one BlobStats field for every durable blob kind.
func perBlobKind(f func(store.BlobStats) int64) func(*Snapshot) []promSample {
	return func(s *Snapshot) []promSample {
		st := s.Store
		out := make([]promSample, len(blobKinds))
		for i, b := range []store.BlobStats{st.Datasets, st.Results, st.ResultStreams, st.Traces, st.ResultCache} {
			out[i] = promSample{labels: []string{"kind", blobKinds[i]}, value: float64(f(b))}
		}
		return out
	}
}

// phaseSummary renders every phase (alphabetical) as a summary: two window
// quantiles plus the lifetime _sum and _count.
func phaseSummary(s *Snapshot) []promSample {
	names := make([]string, 0, len(s.Phases))
	for n := range s.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]promSample, 0, 4*len(names))
	for _, n := range names {
		pv := s.Phases[n]
		out = append(out,
			promSample{labels: []string{"phase", n, "quantile", "0.5"}, value: pv.P50s},
			promSample{labels: []string{"phase", n, "quantile", "0.95"}, value: pv.P95s},
			promSample{suffix: "_sum", labels: []string{"phase", n}, value: pv.SumSec},
			promSample{suffix: "_count", labels: []string{"phase", n}, value: float64(pv.Count)},
		)
	}
	return out
}

// metricFamilies is the /metrics exposition, in emission order.
var metricFamilies = []metricFamily{
	{"secreta_jobs", "gauge", "Jobs in the job table by state.", nil, func(s *Snapshot) []promSample {
		out := make([]promSample, len(jobStates))
		for i, st := range jobStates {
			out[i] = promSample{labels: []string{"state", string(st)}, value: float64(s.Jobs[st])}
		}
		return out
	}},
	{"secreta_queue_depth", "gauge", "Jobs waiting for an admission slot.", nil,
		func(s *Snapshot) []promSample { return one(s.Jobs[StatusQueued]) }},
	{"secreta_job_slots", "gauge", "Admission slots configured (max concurrent jobs).", nil,
		func(s *Snapshot) []promSample { return one(s.Slots.Total) }},
	{"secreta_job_slots_in_use", "gauge", "Admission slots currently held by running jobs.", nil,
		func(s *Snapshot) []promSample { return one(s.Slots.InUse) }},
	{"secreta_phase_latency_seconds", "summary",
		"Per-phase execution latency (rolling-window quantiles, lifetime sum/count).", nil, phaseSummary},

	{"secreta_cache_hits_total", "counter", "Result cache hits served from RAM.", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.Hits) }},
	{"secreta_cache_misses_total", "counter", "Result cache misses (computed fresh).", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.Misses) }},
	{"secreta_cache_disk_hits_total", "counter", "Cache hits rehydrated from the disk backing.", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.DiskHits) }},
	{"secreta_cache_disk_errors_total", "counter", "Disk-backing failures (degraded to recompute).", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.DiskErrors) }},
	{"secreta_cache_evictions_total", "counter", "Cache entries evicted by the size caps.", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.Evictions) }},
	{"secreta_cache_rejected_total", "counter", "Cache puts refused for exceeding the byte cap.", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.Rejected) }},
	{"secreta_cache_entries", "gauge", "Result cache entries resident in RAM.", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.Entries) }},
	{"secreta_cache_bytes", "gauge", "Result cache bytes resident in RAM.", nil,
		func(s *Snapshot) []promSample { return one(s.Cache.Bytes) }},

	{"secreta_registry_datasets", "gauge", "Datasets resident in the upload registry.", nil,
		func(s *Snapshot) []promSample { return one(s.Registry.Entries) }},
	{"secreta_registry_bytes", "gauge", "Bytes resident in the upload registry.", nil,
		func(s *Snapshot) []promSample { return one(s.Registry.Bytes) }},
	{"secreta_registry_pinned", "gauge", "Registry entries pinned by in-flight jobs.", nil,
		func(s *Snapshot) []promSample { return one(s.Registry.Pinned) }},
	{"secreta_registry_hits_total", "counter", "Registry lookups that found their dataset.", nil,
		func(s *Snapshot) []promSample { return one(s.Registry.Hits) }},
	{"secreta_registry_misses_total", "counter", "Registry lookups that missed.", nil,
		func(s *Snapshot) []promSample { return one(s.Registry.Misses) }},
	{"secreta_registry_evictions_total", "counter", "Registry entries evicted by the caps.", nil,
		func(s *Snapshot) []promSample { return one(s.Registry.Evictions) }},

	{"secreta_streaming_active", "gauge", "NDJSON result streams being served right now.", nil,
		func(s *Snapshot) []promSample { return one(s.Streaming.Active) }},
	{"secreta_streaming_served_total", "counter", "NDJSON result streams served to completion.", nil,
		func(s *Snapshot) []promSample { return one(s.Streaming.Served) }},
	{"secreta_streaming_client_disconnects_total", "counter", "NDJSON streams cut short by the client.", nil,
		func(s *Snapshot) []promSample { return one(s.Streaming.ClientDisconnects) }},

	{"secreta_store_blob_count", "gauge", "Durable blobs on disk by kind.", hasStore,
		perBlobKind(func(b store.BlobStats) int64 { return int64(b.Count) })},
	{"secreta_store_blob_bytes", "gauge", "Durable blob bytes on disk by kind.", hasStore,
		perBlobKind(func(b store.BlobStats) int64 { return b.Bytes })},
	{"secreta_store_journal_jobs", "gauge", "Jobs tracked by the durable journal.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Store.Journal.Jobs) }},
	{"secreta_store_wal_records", "gauge", "WAL records appended since the last snapshot.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Store.Journal.WALRecords) }},
	{"secreta_store_wal_bytes", "gauge", "WAL bytes on disk since the last snapshot.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Store.Journal.WALBytes) }},
	{"secreta_store_trim_errors_total", "counter", "Failed deletions/listings across trim and GC passes.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Store.TrimErrors) }},
	{"secreta_store_io_retries_total", "counter", "Transient I/O errors absorbed by the store's retry layer.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Store.IORetries) }},
	{"secreta_degraded", "gauge", "1 while the server is in degraded read-only mode after a permanent storage fault.", hasStore,
		func(s *Snapshot) []promSample { return boolSample(s.Degraded.Active) }},
	{"secreta_degraded_entered_total", "counter", "Healthy-to-degraded transitions since boot.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Degraded.Entered) }},
	{"secreta_degraded_probes_total", "counter", "Storage recovery probes run while degraded.", hasStore,
		func(s *Snapshot) []promSample { return one(s.Degraded.Probes) }},

	{"secreta_tenant_jobs", "gauge", "Jobs in the job table by tenant and state.", hasTenants, func(s *Snapshot) []promSample {
		out := make([]promSample, 0, len(s.Tenants)*len(jobStates))
		for _, tv := range s.Tenants {
			for _, st := range jobStates {
				out = append(out, promSample{labels: []string{"tenant", tv.ID, "state", string(st)}, value: float64(tv.JobsByState[st])})
			}
		}
		return out
	}},
	{"secreta_tenant_stored_bytes", "gauge", "Dataset bytes claimed by each tenant (the stored-bytes quota unit).", hasTenants,
		perTenant(func(tv TenantView) int64 { return tv.StoredBytes })},
	{"secreta_tenant_weight", "gauge", "Weighted round-robin dispatch weight per tenant.", hasTenants,
		perTenant(func(tv TenantView) int { return tv.Weight })},
	{"secreta_tenant_rate_limited_total", "counter", "POSTs answered 429 by the tenant's token bucket.", hasTenants,
		perTenant(func(tv TenantView) uint64 { return tv.RateLimitedTotal })},
	{"secreta_tenant_quota_rejects_total", "counter", "Requests rejected by a tenant quota (stored bytes or pending jobs).", hasTenants,
		perTenant(func(tv TenantView) uint64 { return tv.QuotaRejectsTotal })},
	{"secreta_tenant_dispatched_total", "counter", "Job slots granted to each tenant by admission (weighted round-robin over the tenant queues).", hasTenants,
		perTenant(func(tv TenantView) uint64 { return tv.DispatchedTotal })},

	{"secreta_gc_max_bytes", "gauge", "Configured data-directory byte cap (-data-max-bytes).", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.MaxBytes) }},
	{"secreta_gc_usage_bytes", "gauge", "Data-directory bytes measured by the last retention sweep.", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.UsageBytes) }},
	{"secreta_gc_sweeps_total", "counter", "Retention sweeps run.", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.Sweeps) }},
	{"secreta_gc_evicted_jobs_total", "counter", "Terminal jobs evicted (with results and traces) by retention sweeps.", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.EvictedJobs) }},
	{"secreta_gc_evicted_datasets_total", "counter", "Unreferenced dataset blobs evicted by retention sweeps.", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.EvictedDatasets) }},
	{"secreta_gc_cache_trimmed_total", "counter", "Disk cache entries dropped by retention sweeps.", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.CacheTrimmed) }},
	{"secreta_gc_errors_total", "counter", "Evictions that failed (stuck files skipped, never wedging the sweep).", hasGC,
		func(s *Snapshot) []promSample { return one(s.GC.Errors) }},

	{"secreta_ready", "gauge", "1 once journal replay has completed and traffic is admitted.", nil,
		func(s *Snapshot) []promSample { return boolSample(s.Ready) }},
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", promContentType)
	bw := bufio.NewWriterSize(w, 16<<10)
	writeExposition(bw, metricFamilies, &snap)
	bw.Flush()
}

// writeExposition renders fams over snap: `name{labels} value` lines
// under each present family's # HELP / # TYPE headers.
func writeExposition(w *bufio.Writer, fams []metricFamily, snap *Snapshot) {
	for _, f := range fams {
		if f.present != nil && !f.present(snap) {
			continue
		}
		w.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.typ + "\n")
		for _, smp := range f.samples(snap) {
			w.WriteString(f.name + smp.suffix)
			sep := "{"
			for i := 0; i < len(smp.labels); i += 2 {
				w.WriteString(sep + smp.labels[i] + `="` + labelEscaper.Replace(smp.labels[i+1]) + `"`)
				sep = ","
			}
			if sep == "," {
				w.WriteByte('}')
			}
			w.WriteByte(' ')
			w.WriteString(strconv.FormatFloat(smp.value, 'g', -1, 64))
			w.WriteByte('\n')
		}
	}
}

// labelEscaper applies the exposition-format label-value escapes:
// backslash, double quote, and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
