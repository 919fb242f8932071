// Package server implements secreta-serve: an HTTP facade over the
// engine's streaming scheduler. Anonymization, evaluation and comparison
// requests are submitted as asynchronous jobs, polled for status, and their
// JSON results retrieved when done — the "many concurrent users" deployment
// the paper's desktop frontend never had. Anonymize jobs share one result
// cache, so identical (dataset, configuration) submissions are served
// without recomputation; evaluate/compare jobs always execute so their
// runtime series are measured.
//
// Datasets travel either inline in the request body or, preferably, by
// reference: POST /datasets uploads a dataset once into a content-addressed
// registry and returns a dataset_ref, which subsequent jobs name instead of
// re-sending the rows. Referenced datasets are pinned for the lifetime of
// each job that uses them, so registry eviction (LRU under entry/byte caps)
// can never pull a dataset out from under a running job.
//
// With Options.Store set, the server is durable: datasets spill to a
// content-addressed blob store (the registry becomes a pin-aware RAM cache
// over disk), every job lifecycle transition is appended to a checksummed
// write-ahead log, terminal results and cache entries persist as blobs,
// and a restart replays snapshot+WAL — rehydrating the dataset index and
// finished jobs, and re-queueing jobs that were in flight when the process
// died. Until replay completes, /healthz reports ready:false and every
// other endpoint answers 503.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/obs"
	"secreta/internal/query"
	"secreta/internal/registry"
	"secreta/internal/store"
	"secreta/internal/timing"
)

// Options configures a Server.
type Options struct {
	// Workers bounds each job's scheduler pool (<= 0: engine default).
	Workers int
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxJobs caps retained job records; the oldest finished jobs (and
	// their result payloads) are evicted beyond it (default 1000).
	MaxJobs int
	// MaxConcurrentJobs bounds jobs running at once across the server;
	// excess submissions wait in StatusQueued (default 4).
	MaxConcurrentJobs int
	// MaxPendingJobs bounds queued+running jobs; beyond it submissions
	// are rejected with 429 so a flood can't grow the store or the queue
	// without limit (default 100).
	MaxPendingJobs int
	// CacheMaxEntries and CacheMaxBytes bound the shared result cache
	// (0: engine defaults — 1024 entries / 256 MiB; negative: unbounded).
	CacheMaxEntries int
	CacheMaxBytes   int64
	// RegistryMaxDatasets and RegistryMaxBytes bound the dataset registry
	// (0: defaults — 64 datasets / 1 GiB; negative: unbounded). Pinned
	// datasets (in use by running jobs) are never evicted, so the caps can
	// be transiently exceeded while every resident dataset is in use.
	// With a Store, these bound only the RAM cache — the durable
	// population on disk is unbounded.
	RegistryMaxDatasets int
	RegistryMaxBytes    int64
	// JobTimeout is the default deadline for a job's execution (queue
	// wait excluded) and the ceiling for per-request timeout_ms; 0
	// disables both. Expired jobs end in StatusTimedOut.
	JobTimeout time.Duration
	// Store, when non-nil, makes the server durable (see the package
	// comment). The caller owns the store's lifecycle and must Close it
	// after the server's context is cancelled and jobs have drained.
	Store *store.Store
	// DegradedProbeInterval is the cadence of the storage-recovery probe
	// while the server is in degraded read-only mode (<= 0:
	// DefaultDegradedProbeInterval). See degraded.go.
	DegradedProbeInterval time.Duration
	// Tenants, when non-empty, turns on multi-tenant mode: every data
	// route requires one of the configured API keys, resources are scoped
	// to their owning tenant, per-tenant rate limits and quotas gate
	// admission, and job slots are shared by weighted round-robin (see
	// tenant.go / dispatch.go). Empty keeps today's single-tenant
	// behavior exactly.
	Tenants []TenantConfig
	// Now, when set, replaces time.Now for the tenant rate buckets and
	// the GC sweeper's clock — injectable so tests control time.
	Now func() time.Time
	// DataMaxBytes, with a Store, caps the data directory's total bytes:
	// a background sweeper evicts the disk cache, then the oldest
	// unpinned terminal jobs, then unreferenced dataset blobs until the
	// directory fits (see gc.go). 0 disables GC.
	DataMaxBytes int64
	// GCInterval is the sweeper's cadence (<= 0: 30s). Job completions
	// additionally nudge the sweeper out of cycle.
	GCInterval time.Duration
	// Logger receives the server's structured logs (nil: slog.Default()).
	Logger *slog.Logger
}

// Registry defaults: generous enough for interactive use, bounded enough
// that a long-lived server's dataset memory stays flat.
const (
	DefaultRegistryDatasets = 64
	DefaultRegistryBytes    = 1 << 30 // 1 GiB of approximate dataset memory
)

// Server routes the secreta-serve HTTP API and owns the job store, the
// schedulers and the shared result cache.
type Server struct {
	opts Options
	mux  *http.ServeMux
	// gates maps each route pattern to the gates its row names (see
	// routes.go).
	gates map[string]gate
	jobs  *jobStore
	// sched serves single-configuration jobs from the shared cache;
	// uncached runs sweep/compare jobs, whose per-point runtime series
	// are benchmarks and must be measured, never copied from a cache hit.
	sched    *engine.Scheduler
	uncached *engine.Scheduler
	cache    *engine.Cache
	registry *registry.Registry
	st       *store.Store // nil: memory-only
	phases   *phaseStats
	logger   *slog.Logger
	// dash holds the dashboard's short sparkline history (see dashboard.go).
	dash    *dashHistory
	baseCtx context.Context
	// ready gates traffic: false while WAL replay re-populates the job
	// table. Memory-only servers are born ready.
	ready    atomic.Bool
	recMu    sync.Mutex
	recovery recoveryInfo
	// degraded latches the server read-only after a permanent storage
	// fault on a durable write; see degraded.go.
	degraded degradedState
	// streams counts NDJSON result deliveries: in-flight, completed, and
	// cut short by a client disconnect. Surfaced on GET /stats so an
	// operator can see streaming health at a glance.
	streams struct {
		active      atomic.Int64
		served      atomic.Uint64
		disconnects atomic.Uint64
	}
	// tenants is the multi-tenant table (nil: single-tenant mode; see
	// tenant.go). gc is the disk retention sweeper (nil unless durable
	// with DataMaxBytes set).
	tenants *tenantSet
	gc      *gcState
	// admission hands out the job slots: a job must hold one to run
	// (see dispatch.go).
	admission *admission
	// uploadSlots bounds concurrent POST /datasets decodes. Uploads don't
	// consume job slots, but decoding up to MaxBodyBytes of JSON is real
	// CPU/memory — without a bound, a flood of uploads could saturate the
	// machine while never tripping the job admission caps.
	uploadSlots chan struct{}
}

// capOrDefault resolves the Options cap convention: 0 picks the default,
// negative disables the bound (0 at the registry/cache layer).
func capOrDefault[T int | int64](v, def T) T {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// New builds a server whose jobs are children of ctx: cancelling it (e.g.
// on process shutdown) cancels every in-flight job. With Options.Store
// set, New wires the durable layers and starts journal replay in the
// background; the server answers 503 (except /healthz) until it
// completes.
func New(ctx context.Context, opts Options) (*Server, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 32 << 20
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1000
	}
	if opts.MaxConcurrentJobs <= 0 {
		opts.MaxConcurrentJobs = 4
	}
	if opts.MaxPendingJobs <= 0 {
		opts.MaxPendingJobs = 100
	}
	cache := engine.NewCacheSized(
		capOrDefault(opts.CacheMaxEntries, engine.DefaultCacheEntries),
		capOrDefault(opts.CacheMaxBytes, int64(engine.DefaultCacheBytes)),
	)
	regEntries := capOrDefault(opts.RegistryMaxDatasets, DefaultRegistryDatasets)
	regBytes := capOrDefault(opts.RegistryMaxBytes, int64(DefaultRegistryBytes))
	var reg *registry.Registry
	if opts.Store != nil {
		cache.SetBacking(opts.Store.Cache)
		var err error
		reg, err = registry.NewBacked(regEntries, regBytes, opts.Store.Datasets)
		if err != nil {
			return nil, fmt.Errorf("server: rehydrating dataset registry: %w", err)
		}
	} else {
		reg = registry.New(regEntries, regBytes)
	}
	s := &Server{
		opts:        opts,
		mux:         http.NewServeMux(),
		gates:       make(map[string]gate, len(routes)),
		jobs:        newJobStore(opts.MaxJobs),
		sched:       engine.NewScheduler(opts.Workers, cache),
		uncached:    engine.NewScheduler(opts.Workers, nil),
		cache:       cache,
		registry:    reg,
		st:          opts.Store,
		phases:      newPhaseStats(),
		logger:      opts.Logger,
		dash:        newDashHistory(),
		baseCtx:     ctx,
		uploadSlots: make(chan struct{}, opts.MaxConcurrentJobs),
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
		s.gates[rt.pattern] = rt.gates
	}
	s.jobs.logger = opts.Logger
	if len(opts.Tenants) > 0 {
		if err := ValidateTenants(opts.Tenants); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.tenants = newTenantSet(opts.Tenants, opts.Now)
	}
	s.admission = newAdmission(opts.MaxConcurrentJobs, s.tenants)
	if opts.DataMaxBytes > 0 && s.st != nil {
		s.gc = newGCState(opts.DataMaxBytes, opts.GCInterval, opts.Now)
		go s.gcLoop(ctx)
	}
	if s.st == nil {
		s.ready.Store(true)
	} else {
		s.jobs.attachStore(s.st)
		s.jobs.shuttingDown = func() bool { return ctx.Err() != nil }
		// A failed journal append is a durable-write fault like any other:
		// classify it and, when permanent, latch degraded mode.
		s.jobs.onJournalError = func(err error) { s.storeFault("journal append", err) }
		go s.recover()
		go s.probeLoop()
	}
	return s, nil
}

// log returns the server's structured logger, falling back to the process
// default.
func (s *Server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// ---- request payloads ----

// ConfigRequest describes one anonymization configuration. Hierarchies are
// auto-generated from the dataset with the given fanout, mirroring the CLI
// default when no hierarchy directory is supplied.
type ConfigRequest struct {
	Label     string   `json:"label,omitempty"`
	Algo      string   `json:"algo"`
	K         int      `json:"k"`
	M         int      `json:"m,omitempty"`
	Delta     float64  `json:"delta,omitempty"`
	Rho       float64  `json:"rho,omitempty"`
	Sensitive []string `json:"sensitive,omitempty"`
	QIs       []string `json:"qis,omitempty"`
	Fanout    int      `json:"fanout,omitempty"`
}

// SweepRequest describes a varying-parameter execution.
type SweepRequest struct {
	Param string  `json:"param"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Step  float64 `json:"step"`
}

func (sr *SweepRequest) sweep() experiment.Sweep {
	return experiment.Sweep{Param: sr.Param, Start: sr.Start, End: sr.End, Step: sr.Step}
}

// AnonymizeRequest is the POST /anonymize and POST /evaluate body; Sweep is
// only honored by /evaluate. Exactly one of Dataset (inline rows) and
// DatasetRef (an ID returned by POST /datasets) must be set. TimeoutMS
// bounds the job's execution (capped by the server's -job-timeout).
type AnonymizeRequest struct {
	Dataset    json.RawMessage `json:"dataset,omitempty"`
	DatasetRef string          `json:"dataset_ref,omitempty"`
	Config     ConfigRequest   `json:"config"`
	Sweep      *SweepRequest   `json:"sweep,omitempty"`
	Workload   []string        `json:"workload,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
}

// CompareRequest is the POST /compare body. Exactly one of Dataset and
// DatasetRef must be set.
type CompareRequest struct {
	Dataset    json.RawMessage `json:"dataset,omitempty"`
	DatasetRef string          `json:"dataset_ref,omitempty"`
	Configs    []ConfigRequest `json:"configs"`
	Sweep      SweepRequest    `json:"sweep"`
	Workload   []string        `json:"workload,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
}

// hierSet memoizes per-fanout hierarchy derivation within one request, so
// a /compare with N configs sharing a fanout derives them once, not N
// times.
type hierSet struct {
	ds    *dataset.Dataset
	rel   map[int]generalize.Set
	items map[int]*hierarchy.Hierarchy
}

func newHierSet(ds *dataset.Dataset) *hierSet {
	return &hierSet{ds: ds, rel: make(map[int]generalize.Set), items: make(map[int]*hierarchy.Hierarchy)}
}

func (h *hierSet) relational(fanout int) (generalize.Set, error) {
	if hs, ok := h.rel[fanout]; ok {
		return hs, nil
	}
	hs, err := gen.Hierarchies(h.ds, fanout)
	if err != nil {
		return nil, err
	}
	h.rel[fanout] = hs
	return hs, nil
}

func (h *hierSet) item(fanout int) (*hierarchy.Hierarchy, error) {
	if ih, ok := h.items[fanout]; ok {
		return ih, nil
	}
	ih, err := gen.ItemHierarchy(h.ds, fanout)
	if err != nil {
		return nil, err
	}
	h.items[fanout] = ih
	return ih, nil
}

// validateConfig parses the algorithm spec and parameters — everything
// checkable without touching the dataset — so bad submissions fail fast
// with 400 while the heavy per-dataset work stays inside the admitted job.
// It returns the config skeleton and the hierarchy fanout.
func validateConfig(req ConfigRequest) (engine.Config, int, error) {
	if req.K <= 0 {
		return engine.Config{}, 0, fmt.Errorf("config: k must be positive, got %d", req.K)
	}
	cfg, err := engine.ConfigFromSpec(req.Algo)
	if err != nil {
		return engine.Config{}, 0, fmt.Errorf("config: %w", err)
	}
	cfg.Label = req.Label
	cfg.K = req.K
	cfg.M = req.M
	cfg.Delta = req.Delta
	cfg.Rho = req.Rho
	cfg.Sensitive = req.Sensitive
	cfg.QIs = req.QIs
	fanout := req.Fanout
	if fanout <= 0 {
		fanout = 4
	}
	return cfg, fanout, nil
}

// parseWorkload parses inline workload lines (nil when absent).
func parseWorkload(lines []string) (*query.Workload, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	w, err := query.Read(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return w, nil
}

// attachInputs derives the hierarchies the config's mode needs and sets
// the workload. It runs inside the job, under admission control — its cost
// is O(dataset) and must not be spendable by unadmitted requests.
func attachInputs(cfg *engine.Config, ds *dataset.Dataset, hiers *hierSet, fanout int, w *query.Workload) error {
	var err error
	if cfg.Mode != engine.Transactional {
		if cfg.Hierarchies, err = hiers.relational(fanout); err != nil {
			return fmt.Errorf("config: deriving hierarchies: %w", err)
		}
	}
	if cfg.Mode != engine.Relational && ds.HasTransaction() {
		if cfg.ItemHierarchy, err = hiers.item(fanout); err != nil {
			return fmt.Errorf("config: deriving item hierarchy: %w", err)
		}
	}
	cfg.Workload = w
	return nil
}

// hasDataset reports whether the request actually carries a dataset
// payload (absent and JSON null both count as missing).
func hasDataset(raw json.RawMessage) bool {
	trimmed := bytes.TrimSpace(raw)
	return len(trimmed) > 0 && string(trimmed) != "null"
}

func decodeDataset(raw json.RawMessage) (*dataset.Dataset, error) {
	return dataset.ReadJSON(bytes.NewReader(raw))
}

// resolveDataset turns a request's dataset fields into a loader. Exactly
// one of raw (inline rows) and ref (an ID from POST /datasets) must be
// set. The loader returns the dataset with its fingerprint when it has one
// for free: a ref is the fingerprint of the registry dataset it names; an
// inline dataset has none until loadTraced hashes it. A ref is reserved
// immediately — before the job is even admitted — so the dataset cannot
// be deleted between submission and execution, but its bytes are loaded
// (and RAM-pinned) only when the job starts: with a durable backing, a
// deep queue of submissions holds index entries, not dataset memory, so
// pinned RAM scales with -max-concurrent rather than queue depth. The
// returned release (idempotent, never nil) must be called when the job
// finishes or the submission is rejected. Inline payloads decode lazily
// inside the job, under admission control, so unadmitted requests cannot
// spend decode CPU.
//
// owner, when non-empty (multi-tenant submissions), requires the caller's
// tenant to have claimed the ref: another tenant's dataset — even one
// whose content fingerprint the caller guessed — answers the same
// not-found error as a ref that never existed.
func (s *Server) resolveDataset(raw json.RawMessage, ref, owner string) (load datasetLoader, release func(), err error) {
	inline := hasDataset(raw)
	switch {
	case inline && ref != "":
		return nil, nil, fmt.Errorf("request has both dataset and dataset_ref; provide exactly one")
	case !inline && ref == "":
		return nil, nil, fmt.Errorf("request has no dataset (inline dataset or dataset_ref required)")
	case inline:
		load := func() (*dataset.Dataset, string, error) {
			ds, err := decodeDataset(raw)
			return ds, "", err
		}
		return load, func() {}, nil
	}
	if owner != "" && !s.tenants.owns(ref, owner) {
		return nil, nil, fmt.Errorf("%w: %q", registry.ErrNotFound, ref)
	}
	pin, release, err := s.registry.PinLazy(ref)
	if err != nil {
		return nil, nil, err
	}
	load = func() (*dataset.Dataset, string, error) {
		ds, err := pin()
		return ds, ref, err
	}
	return load, release, nil
}

// datasetLoader loads a job's dataset and returns it with its
// fingerprint, empty for an inline dataset.
type datasetLoader func() (ds *dataset.Dataset, fingerprint string, err error)

// datasetError writes the right status for a dataset resolution failure:
// an unknown (or already evicted) dataset_ref is 404, a broken durable
// backing is 500, an oversized dataset 507, everything else a plain bad
// request.
func (s *Server) datasetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
	case errors.Is(err, registry.ErrStore):
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	case errors.Is(err, registry.ErrTooLarge):
		writeJSON(w, http.StatusInsufficientStorage, map[string]any{"error": err.Error()})
	default:
		s.badRequest(w, err)
	}
}

// ---- job preparation ----

// preparedJob is a validated submission, ready to run (and re-run: the
// recovery path rebuilds one from the journaled request body after a
// crash). release frees resources acquired at preparation time — the
// registry pin — and must be called exactly once on every exit path.
type preparedJob struct {
	fn         func(context.Context) (*jobResult, error)
	release    func()
	timeout    time.Duration
	datasetRef string
}

// effectiveTimeout combines the per-request budget with the server
// default: the request can only tighten the operator's bound, never
// loosen it.
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	def := s.opts.JobTimeout
	if ms <= 0 {
		return def
	}
	t := time.Duration(ms) * time.Millisecond
	if def > 0 && t > def {
		return def
	}
	return t
}

// decodeStrict unmarshals a request body, rejecting unknown fields.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// prepareJob validates a raw request body for the given kind and builds
// its runnable. Everything observable before admission happens here —
// parse errors, config validation, the dataset pin — which is exactly
// what makes journaled bodies re-queueable: recovery calls prepareJob
// again and gets a fresh pin and a fresh closure.
func (s *Server) prepareJob(kind string, body []byte, owner string) (*preparedJob, error) {
	switch kind {
	case "anonymize", "evaluate":
		var req AnonymizeRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
		return s.prepareSingle(kind, &req, owner)
	case "compare":
		var req CompareRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
		return s.prepareCompare(&req, owner)
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// prepareSingle builds anonymize and evaluate jobs (the latter optionally
// a sweep).
func (s *Server) prepareSingle(kind string, req *AnonymizeRequest, owner string) (*preparedJob, error) {
	if kind == "anonymize" && req.Sweep != nil {
		// Reject rather than silently running the base config once.
		return nil, fmt.Errorf("sweep is not supported by /anonymize; use /evaluate")
	}
	cfg, fanout, err := validateConfig(req.Config)
	if err != nil {
		return nil, err
	}
	workload, err := parseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	if req.Sweep != nil {
		sweep := req.Sweep.sweep()
		if err := sweep.Validate(); err != nil {
			return nil, err
		}
		load, release, err := s.resolveDataset(req.Dataset, req.DatasetRef, owner)
		if err != nil {
			return nil, err
		}
		fn := func(ctx context.Context) (*jobResult, error) {
			ds, _, err := s.loadTraced(ctx, load, false)
			if err != nil {
				return nil, err
			}
			if err := attachInputs(&cfg, ds, newHierSet(ds), fanout, workload); err != nil {
				return nil, err
			}
			series, err := experiment.VaryingRunCtx(ctx, ds, cfg, sweep, s.uncached)
			if err != nil {
				return nil, err
			}
			return seriesPayload([]*experiment.Series{series})
		}
		return &preparedJob{fn: fn, release: release, timeout: s.effectiveTimeout(req.TimeoutMS), datasetRef: req.DatasetRef}, nil
	}
	load, release, err := s.resolveDataset(req.Dataset, req.DatasetRef, owner)
	if err != nil {
		return nil, err
	}
	var fn func(context.Context) (*jobResult, error)
	if kind == "anonymize" {
		fn = func(ctx context.Context) (*jobResult, error) {
			res, cacheHit, err := s.runSingle(ctx, s.sched, load, cfg, fanout, workload)
			if err != nil {
				return nil, err
			}
			return anonymizeResult(res, cacheHit)
		}
	} else {
		fn = func(ctx context.Context) (*jobResult, error) {
			// Uncached like the CLI: /evaluate is a measurement, so its
			// runtime must come from a real execution.
			res, _, err := s.runSingle(ctx, s.uncached, load, cfg, fanout, workload)
			if err != nil {
				return nil, err
			}
			return resultsPayload([]*engine.Result{res})
		}
	}
	return &preparedJob{fn: fn, release: release, timeout: s.effectiveTimeout(req.TimeoutMS), datasetRef: req.DatasetRef}, nil
}

func (s *Server) prepareCompare(req *CompareRequest, owner string) (*preparedJob, error) {
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("compare request has no configs")
	}
	bases := make([]engine.Config, len(req.Configs))
	fanouts := make([]int, len(req.Configs))
	for i, cr := range req.Configs {
		cfg, fanout, err := validateConfig(cr)
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		if cfg.Label == "" {
			cfg.Label = cr.Algo
		}
		bases[i], fanouts[i] = cfg, fanout
	}
	workload, err := parseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	sweep := req.Sweep.sweep()
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	load, release, err := s.resolveDataset(req.Dataset, req.DatasetRef, owner)
	if err != nil {
		return nil, err
	}
	fn := func(ctx context.Context) (*jobResult, error) {
		ds, _, err := s.loadTraced(ctx, load, false)
		if err != nil {
			return nil, err
		}
		hiers := newHierSet(ds)
		for i := range bases {
			if err := attachInputs(&bases[i], ds, hiers, fanouts[i], workload); err != nil {
				return nil, err
			}
		}
		series, err := experiment.CompareCtx(ctx, ds, bases, sweep, s.uncached)
		if err != nil {
			return nil, err
		}
		return seriesPayload(series)
	}
	return &preparedJob{fn: fn, release: release, timeout: s.effectiveTimeout(req.TimeoutMS), datasetRef: req.DatasetRef}, nil
}

// runSingle is the shared single-configuration job body: load the dataset
// (decode inline rows, or hand back the pinned registry copy), attach
// hierarchies/workload, and execute through the given scheduler. It runs
// inside the job, behind admission control. The bool reports whether the
// result was served from the cache — payloads surface it so a copied
// runtime_s is never mistaken for a fresh measurement.
func (s *Server) runSingle(ctx context.Context, sched *engine.Scheduler, load datasetLoader, cfg engine.Config, fanout int, workload *query.Workload) (*engine.Result, bool, error) {
	ds, fp, err := s.loadTraced(ctx, load, sched.Cache() != nil)
	if err != nil {
		return nil, false, err
	}
	if err := attachInputs(&cfg, ds, newHierSet(ds), fanout, workload); err != nil {
		return nil, false, err
	}
	var item engine.Item
	got := false
	for it := range sched.Stream(ctx, ds, fp, []engine.Config{cfg}) {
		item, got = it, true
	}
	if !got {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("scheduler emitted no result")
	}
	if item.Result.Err != nil {
		return nil, false, item.Result.Err
	}
	if !item.CacheHit {
		// Fold the measured phase breakdown into the /stats aggregates; a
		// cache hit replays stored timings and would skew the percentiles.
		s.phases.record(item.Result.Phases)
		s.logPhases(ctx, fp, item.Result.Phases)
	}
	return item.Result, item.CacheHit, nil
}

// loadTraced wraps a job's dataset load in a trace span annotated with the
// dataset's size and, when it has one, its content fingerprint, and
// returns both the dataset and the fingerprint. An inline dataset is
// hashed, once per job, only when fingerprint asks for it: only a cached
// scheduler keys on the hash.
func (s *Server) loadTraced(ctx context.Context, load datasetLoader, fingerprint bool) (*dataset.Dataset, string, error) {
	sp := obs.FromCtx(ctx).Start("dataset_load")
	defer sp.End()
	ds, fp, err := load()
	if err != nil {
		sp.SetAttr("err", err.Error())
		return nil, "", err
	}
	if fp == "" && fingerprint {
		fp = ds.Fingerprint()
	}
	if fp != "" {
		sp.SetAttr("fingerprint", fp)
	}
	sp.SetAttr("records", strconv.Itoa(len(ds.Records)))
	return ds, fp, nil
}

// logPhases emits one structured log line per measured algorithm phase —
// job_id (the trace's job), dataset fingerprint, phase name, duration —
// the queryable form of the per-job phase breakdown.
func (s *Server) logPhases(ctx context.Context, fp string, phases []timing.Phase) {
	if len(phases) == 0 {
		return
	}
	lg := s.log()
	jobID := obs.FromCtx(ctx).TraceID()
	for _, ph := range phases {
		lg.Info("phase complete",
			"job_id", jobID,
			"dataset", fp,
			"phase", ph.Name,
			"duration_s", ph.Duration.Seconds(),
		)
	}
}

// ---- handlers ----

// handleSubmit is the handler of the submission row for jobs of kind:
// read the (bounded) body, validate it into a preparedJob, and hand both
// to submit — the body rides along into the journal so a crash can
// re-queue the job.
func handleSubmit(kind string) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) {
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		tenant := reqTenant(r)
		p, err := s.prepareJob(kind, body, tenant)
		if err != nil {
			s.datasetError(w, err)
			return
		}
		s.submit(w, kind, body, p, tenant)
	}
}

// handleDatasetUpload stores the posted dataset — the same JSON format the
// inline "dataset" field carries — in the content-addressed registry and
// returns its dataset_ref. The ref is the dataset's content fingerprint:
// re-uploading identical content yields the same ref (created=false, 200)
// and refreshes its recency; new content answers 201. With a durable
// store, the dataset is on disk (fsync'd) before the response is sent.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	select {
	case s.uploadSlots <- struct{}{}:
		defer func() { <-s.uploadSlots }()
	default:
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": fmt.Sprintf("server saturated: %d dataset uploads in flight", cap(s.uploadSlots)),
		})
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	ds, err := dataset.ReadJSON(body)
	if err != nil {
		s.bodyError(w, "decoding dataset", err)
		return
	}
	if tst := s.tenantState(r); tst != nil {
		// Stored-bytes quota, checked before the write. A re-upload of a
		// ref the tenant already claims is free (content-addressed: same
		// bytes, same claim). The check-then-claim window means two racing
		// novel uploads can overshoot by one dataset — the quota is an
		// admission bound, not an accounting ledger.
		cost := ds.ApproxBytes()
		if tst.cfg.MaxStoredBytes > 0 && !s.tenants.owns(ds.Fingerprint(), tst.cfg.ID) &&
			tst.storedBytes.Load()+cost > tst.cfg.MaxStoredBytes {
			tst.rejected.Add(1)
			quotaReject(w, http.StatusForbidden, "quota_stored_bytes",
				fmt.Sprintf("tenant %q would exceed its stored-bytes quota (%d of %d bytes used, upload is %d)",
					tst.cfg.ID, tst.storedBytes.Load(), tst.cfg.MaxStoredBytes, cost))
			return
		}
	}
	id, created, err := s.registry.Add(ds)
	if err != nil {
		s.datasetError(w, err)
		return
	}
	if tenant := reqTenant(r); tenant != "" {
		// Ownership is a claim on the content-addressed blob: tenants
		// uploading identical bytes share one blob, each holding its own
		// journaled claim. The blob is GC-eligible only when unclaimed.
		if s.tenants.claim(id, tenant, ds.ApproxBytes()) {
			s.journalClaim(id, tenant, ds.ApproxBytes())
		}
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]any{
		"dataset_ref": id,
		"created":     created,
		"attrs":       len(ds.Attrs),
		"records":     len(ds.Records),
		"bytes":       ds.ApproxBytes(),
	})
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := s.registry.List()
	if s.tenants != nil {
		// Only refs the caller's tenant has claimed — sharing a blob with
		// another tenant is invisible from either side.
		tenant := reqTenant(r)
		scoped := infos[:0]
		for _, info := range infos {
			if s.tenants.owns(info.ID, tenant) {
				scoped = append(scoped, info)
			}
		}
		infos = scoped
	}
	if infos == nil {
		infos = []registry.Info{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tenants != nil && !s.tenants.owns(id, reqTenant(r)) {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("%v: %q", registry.ErrNotFound, id),
		})
		return
	}
	info, err := s.registry.Describe(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetDelete evicts a dataset explicitly (from disk too, when
// durable). A dataset pinned by a running job cannot be deleted; the
// client gets 409 and may retry after the job finishes. In multi-tenant
// mode the delete releases the caller's claim; the shared blob is only
// removed once no tenant claims it, and a ref the caller never claimed
// answers 404 exactly like one that never existed.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tenants != nil {
		tenant := reqTenant(r)
		if !s.tenants.owns(id, tenant) {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error": fmt.Sprintf("%v: %q", registry.ErrNotFound, id),
			})
			return
		}
		_, last := s.tenants.release(id, tenant)
		if last {
			if err := s.registry.Remove(id); errors.Is(err, registry.ErrPinned) {
				// The caller's own running job holds the blob (no other
				// tenant claims it, and unclaimed refs are unusable in new
				// submissions). Undo the release and report the conflict.
				s.tenants.claim(id, tenant, datasetClaimBytes(s.registry, id))
				writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
				return
			} else if err != nil && !errors.Is(err, registry.ErrNotFound) {
				s.log().Warn("deleting dataset blob failed", "dataset", id, "err", err)
			}
		}
		s.journalRelease(id, tenant)
		writeJSON(w, http.StatusOK, map[string]any{"dataset_ref": id, "deleted": true})
		return
	}
	switch err := s.registry.Remove(id); {
	case errors.Is(err, registry.ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
	case errors.Is(err, registry.ErrPinned):
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"dataset_ref": id, "deleted": true})
	}
}

// datasetClaimBytes recovers the claim size when a release has to be
// undone (Describe still answers for a pinned dataset).
func datasetClaimBytes(reg *registry.Registry, id string) int64 {
	if info, err := reg.Describe(id); err == nil {
		return info.Bytes
	}
	return 0
}

// handleJobList supports ?state= (one lifecycle state), ?limit= (max
// entries returned) and ?after= (a job ID cursor: only jobs submitted
// after it), so polling a long-lived durable job table doesn't dump
// thousands of entries. total counts every match before pagination.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	var q jobQuery
	if st := params.Get("state"); st != "" {
		q.state = Status(st)
		if !validListState(q.state) {
			s.badRequest(w, fmt.Errorf("unknown state %q", st))
			return
		}
	}
	if lim := params.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		// 0 is rejected rather than silently meaning "unlimited" — the
		// internal sentinel must not be reachable from the query string.
		if err != nil || n < 1 {
			s.badRequest(w, fmt.Errorf("limit must be a positive integer, got %q", lim))
			return
		}
		q.limit = n
	}
	if after := params.Get("after"); after != "" {
		seq, err := parseJobSeq(after)
		if err != nil {
			s.badRequest(w, err)
			return
		}
		q.afterSeq = seq
	}
	if s.tenants != nil {
		// The cursor is just a sequence watermark; the tenant filter still
		// applies to every row, so `after=` cannot leak foreign jobs.
		q.tenant = reqTenant(r)
		q.tenantScoped = true
	}
	views, total := s.jobs.list(q)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "total": total})
}

// pathJob resolves the {id} path value to a job the request may see, or
// answers 404 and returns nil: in multi-tenant mode another tenant's job
// is indistinguishable from a missing one.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	if j := s.jobs.get(id); j != nil && (s.tenants == nil || j.tenant == reqTenant(r)) {
		return j
	}
	writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("no job %q", id)})
	return nil
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobTrace serves a job's lifecycle span tree. A queued or running
// job answers from the in-memory recorder — mid-flight snapshots show
// open spans with durations up to now — and so does a finished job on a
// memory-only server. On a durable server a finished job answers from
// its persisted trace snapshot, whether it finished in this process or
// was recovered from the journal, so traces survive restart.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	if tr := j.liveTrace(); tr != nil {
		writeJSON(w, http.StatusOK, tr.View())
		return
	}
	if s.st != nil {
		if data, err := s.st.Traces.Get(j.id); err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(data)
			return
		}
	}
	writeJSON(w, http.StatusNotFound, map[string]any{
		"error": fmt.Sprintf("no trace recorded for job %q", j.id),
	})
}

// handleJobResult serves a finished job's result as one JSON document,
// assembled incrementally from the retained record stream for anonymize
// jobs (the bytes are identical to the historical fully-buffered
// construction). With `Accept: application/x-ndjson` the response is the
// NDJSON stream instead — the same negotiation /result/stream offers
// unconditionally.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if acceptsNDJSON(r) {
		s.handleJobResultStream(w, r)
		return
	}
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	status, result, errMsg := j.snapshot()
	if status != StatusDone {
		s.writeUnfinished(w, j, status, errMsg)
		return
	}
	if result == nil {
		// Unreachable by construction (a done job always retains a
		// result), but a nil here must not panic the handler.
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"job": j.id, "status": status, "error": "job finished without a result",
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if result.full != nil {
		w.Write(result.full)
		return
	}
	if err := writeBufferedAnonymize(w, result.meta, result.recs); err != nil {
		// The 200 is already on the wire. Abort the connection so the
		// client sees a broken transfer (no terminating chunk), never a
		// transport-complete response with a silently truncated body.
		s.log().Error("assembling result failed mid-response", "job_id", j.id, "err", err)
		panic(http.ErrAbortHandler)
	}
}

// handleJobResultStream serves a finished anonymize job's result as
// NDJSON — one meta header line, then one record per line — writing and
// flushing in chunkTarget batches. The response streams straight from the
// retained record source (interned columns in RAM, or the chunked file on
// disk), so serving N records needs O(chunk) memory; a slow or gone
// client stalls only this handler's goroutine, never a job worker slot.
// Client disconnects are detected via the request context between
// batches, freeing the connection promptly without affecting the job.
func (s *Server) handleJobResultStream(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	status, result, errMsg := j.snapshot()
	if status != StatusDone {
		s.writeUnfinished(w, j, status, errMsg)
		return
	}
	if result == nil || result.meta == nil {
		// Series results (evaluate/compare) are small documents with no
		// record stream; only the buffered route can represent them.
		writeJSON(w, http.StatusNotAcceptable, map[string]any{
			"error": fmt.Sprintf("job %s (%s) has no record stream; GET /jobs/%s/result instead", j.id, j.kind, j.id),
		})
		return
	}
	meta, err := json.Marshal(result.meta)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	s.streams.active.Add(1)
	defer s.streams.active.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	ctx := r.Context()
	rc := http.NewResponseController(w)
	err = batchLines(result.recs, append(meta, '\n'), func(batch []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := w.Write(batch); err != nil {
			return err
		}
		rc.Flush()
		return nil
	})
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			s.streams.disconnects.Add(1)
			return
		}
		// A server-side failure (e.g. a corrupt result file) mid-stream:
		// abort the connection rather than ending the chunked body
		// cleanly, so the short stream cannot be mistaken for complete.
		s.log().Error("streaming result failed mid-response", "job_id", j.id, "err", err)
		panic(http.ErrAbortHandler)
	}
	s.streams.served.Add(1)
	// Recorded only while the trace is still in memory (a memory-only
	// server, or a failed trace write): a durable server serves the
	// snapshot it persisted at finish, which predates delivery.
	if tr := j.liveTrace(); tr != nil {
		tr.Root().Event("stream_served")
	}
}

// writeUnfinished answers a result request for a job that is not done.
func (s *Server) writeUnfinished(w http.ResponseWriter, j *job, status Status, errMsg string) {
	switch status {
	case StatusFailed, StatusTimedOut:
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"job": j.id, "status": status, "error": errMsg,
		})
	case StatusCancelled:
		writeJSON(w, http.StatusGone, map[string]any{
			"job": j.id, "status": status,
		})
	default:
		// Not finished yet: tell the poller to come back.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, j.view())
	}
}

// acceptsNDJSON reports whether the request negotiates the streaming
// representation on the buffered result route: an NDJSON media range
// listed in Accept with a non-zero quality. Full content-negotiation
// scoring is deliberately out of scope — JSON stays the default unless
// the client names NDJSON.
func acceptsNDJSON(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaRange, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		switch strings.ToLower(strings.TrimSpace(mediaRange)) {
		case "application/x-ndjson", "application/ndjson":
		default:
			continue
		}
		refused := false
		for _, p := range strings.Split(params, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
				continue
			}
			if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
				refused = true
			}
		}
		if !refused {
			return true
		}
	}
	return false
}

// handleJobCancel stops a queued/running job; on a job that already
// finished it deletes the record (and its retained result — durable copy
// included) instead.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	if v := j.view(); v.Status.Terminal() {
		s.jobs.remove(j.id)
		writeJSON(w, http.StatusOK, map[string]any{"job": j.id, "status": v.Status, "deleted": true})
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.view())
}

// handleHealth is the one endpoint that bypasses the readiness gate:
// ready=false tells orchestrators the process is alive but still
// replaying its journal. While the server is in degraded read-only mode
// the payload carries the triggering error, so "why are my POSTs 503"
// is answerable from the health check alone.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{"status": "ok", "ready": s.ready.Load()}
	if d := s.degraded.view(); d.Active {
		out["status"] = "degraded"
		out["degraded"] = d
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- plumbing ----

// submit registers a job, responds 202 with its ID, and runs it in the
// background. Jobs wait in StatusQueued for an admission slot, so at most
// MaxConcurrentJobs run at once regardless of the submission rate; past
// MaxPendingJobs the request is rejected outright with 429, as is a
// tenant past its own pending-jobs quota (reason quota_pending_jobs).
// body is journaled with the submission so a crash before completion can
// re-queue the job.
func (s *Server) submit(w http.ResponseWriter, kind string, body []byte, p *preparedJob, tenant string) {
	tenantPending := 0
	tst := (*tenantState)(nil)
	if s.tenants != nil {
		if tst = s.tenants.byID[tenant]; tst != nil {
			tenantPending = tst.cfg.MaxPendingJobs
		}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j, reject := s.jobs.add(kind, cancel, s.opts.MaxPendingJobs, body, p.datasetRef, tenant, tenantPending)
	if j == nil {
		cancel()
		p.release()
		if reject == "tenant" {
			tst.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			quotaReject(w, http.StatusTooManyRequests, "quota_pending_jobs",
				fmt.Sprintf("tenant %q has %d jobs pending (its quota)", tenant, tenantPending))
			return
		}
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": fmt.Sprintf("server saturated: %d jobs pending", s.opts.MaxPendingJobs),
		})
		return
	}
	go s.runJob(ctx, cancel, j, p)
	writeJSON(w, http.StatusAccepted, j.view())
}

// runJob drives one job through admission, execution and completion.
// p.release (the registry pin, idempotent) runs on every path:
// cancellation while queued, timeout, and normal completion. job.finish
// calls it before publishing the terminal status; the deferred call only
// covers a panic on the way there. p.fn itself may never run (a job
// cancelled while queued), which is why release cannot live inside it.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, p *preparedJob) {
	defer p.release()
	defer cancel()
	queueSpan := j.trace.Root().Start("queue_wait")
	if err := s.admission.admit(ctx, j.tenant); err != nil {
		queueSpan.End()
		j.finish(nil, err, err, false, p.release)
		return
	}
	defer s.admission.release(j.tenant)
	queueSpan.End()
	// A grant can land just before the job's context is cancelled; don't
	// burn the slot on dataset decoding for it.
	if err := ctx.Err(); err != nil {
		j.finish(nil, err, err, false, p.release)
		return
	}
	// The execution deadline starts now — queue wait is the server's
	// fault, not the job's budget.
	runCtx, cancelRun := ctx, context.CancelFunc(func() {})
	if p.timeout > 0 {
		runCtx, cancelRun = context.WithTimeout(ctx, p.timeout)
	}
	defer cancelRun()
	j.start()
	// Everything the job does — dataset load, engine run with its phase
	// breakdown, algorithm events — nests under the execute span via the
	// context.
	execSpan := j.trace.Root().Start("execute")
	runCtx = obs.With(runCtx, execSpan)
	res, err := p.fn(runCtx)
	execSpan.End()
	s.finishJob(j, res, err, runCtx.Err(), p.release)
}

// finishJob persists a successful result (durability first: the result
// bytes are on disk before the journal's terminal record points at them)
// and records the outcome.
//
// Series jobs keep their small document in RAM (and as a .json blob when
// durable). Anonymize jobs are the streaming case: when durable, the
// records are written once as a framed chunk file and the job retains
// only the meta plus a reopenable disk stream — resident memory per
// terminal job is O(1), and every later request serves O(chunk); without
// a store (or when the write fails), the job retains the result's record
// source — the interned columnar copy the result cache built and shares
// with its entry, the most compact replayable in-RAM shape.
func (s *Server) finishJob(j *job, res *jobResult, err error, ctxErr error, release func()) {
	hasResult := false
	// Persist whenever the work completed — matching finish()'s rule that
	// a result with no error is done even if the deadline fired as fn
	// returned.
	if err == nil && res != nil {
		persistSpan := j.trace.Root().Start("persist")
		if s.st != nil {
			what, werr := "result blob", error(nil)
			if res.meta != nil {
				what, werr = "result stream", s.writeChunkedResult(j.id, res.meta, res.recs)
			} else {
				werr = s.st.Results.Put(j.id, res.full)
			}
			if werr != nil {
				// The job still answers from memory; only post-restart
				// retrieval is lost. A permanent error additionally
				// latches degraded mode — the next write would fail too.
				s.log().Warn("persisting "+what+" failed", "job_id", j.id, "err", werr)
				persistSpan.Event("fault: " + what + ": " + werr.Error())
				s.storeFault(what+" persist", werr)
			} else {
				hasResult = true
				if res.meta != nil {
					res.recs = diskRecords{chunks: s.st.ResultChunks, id: j.id}
				}
			}
		}
		persistSpan.End()
	}
	j.finish(res, err, ctxErr, hasResult, release)
	// Results just landed on disk; let the retention sweeper re-check the
	// cap without waiting out its ticker.
	s.gcKick()
}

// writeChunkedResult persists an anonymize result as a framed chunk
// file: frame 0 the compact meta document, then record lines batched
// into chunkTarget-sized frames — written incrementally, fsync'd, and
// atomically published.
func (s *Server) writeChunkedResult(id string, meta *anonMeta, recs resultRecords) error {
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	cw, err := s.st.ResultChunks.Create(id)
	if err != nil {
		return err
	}
	if err := cw.WriteFrame(metaLine); err != nil {
		cw.Abort()
		return err
	}
	if err := batchLines(recs, nil, cw.WriteFrame); err != nil {
		cw.Abort()
		return err
	}
	return cw.Commit()
}

// readBody reads the request body under the MaxBodyBytes cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		s.bodyError(w, "reading request", err)
		return nil, false
	}
	return body, true
}

// bodyError answers a request body that failed to read or decode: 413
// when the MaxBodyBytes cap cut it short, else 400 naming what failed.
func (s *Server) bodyError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error": fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
		})
		return
	}
	s.badRequest(w, fmt.Errorf("%s: %w", what, err))
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// The result payload builders (series documents, anonymize meta + record
// streams, and the buffered-document assembler) live in payload.go.
