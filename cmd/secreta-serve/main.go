// Command secreta-serve runs SECRETA as a long-lived anonymization
// service: an HTTP API over the engine's streaming scheduler with async
// job submission, status polling, JSON result retrieval, and a
// content-addressed dataset registry so large datasets are uploaded once
// and referenced by ID instead of resubmitted with every job.
//
//	secreta-serve -addr :8080 -workers 8 -data-dir /var/lib/secreta
//
// With -data-dir set, the server is durable: datasets, job history,
// terminal results and the anonymize result cache live on disk (blob
// store + WAL-backed job journal), a restart replays them, and jobs that
// were in flight when the process died are re-queued. Without it,
// everything is in memory and a restart starts from scratch.
//
// With -tenants-file set, the server is multi-tenant: every data route
// requires one of the configured API keys (Authorization: Bearer or
// X-API-Key), datasets and jobs are scoped to their owning tenant,
// per-tenant rate limits and quotas gate admission, and job slots are
// shared by weighted round-robin so no tenant can starve another. With
// -data-max-bytes set (and -data-dir), a background sweeper keeps the
// data directory under the cap, evicting the disk cache, the oldest
// terminal results, and unreferenced dataset blobs — never in-flight
// state. See docs/OPERATIONS.md ("Multi-tenancy & retention").
//
// Logs are structured (log/slog): -log-format picks text (default) or
// json. With -debug-addr set, a second listener serves net/http/pprof
// profiles — bind it to localhost only; it must never be exposed
// publicly.
//
// The HTTP routes and their request and response bodies are listed in
// docs/API.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secreta/internal/faultfs"
	"secreta/internal/server"
	"secreta/internal/store"
)

// The flags are package-level so the docs test can list them.
var (
	addr             = flag.String("addr", ":8080", "listen address")
	workers          = flag.Int("workers", 0, "scheduler workers per job (0: engine default)")
	maxBody          = flag.Int64("max-body", 32<<20, "maximum request body bytes")
	maxConcurrent    = flag.Int("max-concurrent", 4, "jobs running at once; excess submissions queue")
	maxPending       = flag.Int("max-pending", 100, "queued+running jobs before submissions get 429")
	cacheEntries     = flag.Int("cache-entries", 0, "result cache entry cap (0: default 1024, -1: unbounded)")
	cacheBytes       = flag.Int64("cache-bytes", 0, "result cache byte cap (0: default 256 MiB, -1: unbounded)")
	registryDatasets = flag.Int("registry-datasets", 0, "dataset registry entry cap (0: default 64, -1: unbounded)")
	registryBytes    = flag.Int64("registry-bytes", 0, "dataset registry byte cap (0: default 1 GiB, -1: unbounded)")
	jobTimeout       = flag.Duration("job-timeout", 0, "default job execution deadline, also caps per-request timeout_ms (0: none)")
	dataDir          = flag.String("data-dir", "", "durable state directory; empty keeps everything in memory")
	snapshotEvery    = flag.Int("snapshot-every", 0, "journal appends between snapshots (0: default 256)")
	diskCacheEntries = flag.Int("disk-cache-entries", 0, "disk result cache entry cap (0: default 4096); needs -data-dir")
	diskCacheBytes   = flag.Int64("disk-cache-bytes", 0, "disk result cache byte cap (0: default 2 GiB); needs -data-dir")
	storeRetries     = flag.Int("store-retries", 0, "store I/O attempts on transient errors, first try included (0: default 3, 1: no retries); needs -data-dir")
	degradedProbe    = flag.Duration("degraded-probe-interval", 0, "how often a degraded server probes storage to re-arm writes (0: default 5s); needs -data-dir")
	tenantsFile      = flag.String("tenants-file", "", "JSON tenant table (API keys, quotas, rates, weights); empty runs single-tenant with no auth")
	dataMaxBytes     = flag.Int64("data-max-bytes", 0, "data directory byte cap enforced by the retention sweeper (0: no GC); needs -data-dir")
	gcInterval       = flag.Duration("gc-interval", 0, "retention sweep cadence (0: default 30s); needs -data-max-bytes")
	logFormat        = flag.String("log-format", "text", "structured log format: text or json")
	debugAddr        = flag.String("debug-addr", "", "separate listener for net/http/pprof profiling; keep it on localhost, never public (empty: disabled)")
)

func main() {
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		logger.Warn("pprof debug listener enabled — do not expose publicly", "addr", debugLn.Addr().String())
	}
	tenants, err := server.LoadTenantsFile(*tenantsFile)
	if err != nil {
		logger.Error("loading tenants file failed", "err", err)
		os.Exit(2)
	}
	if len(tenants) > 0 {
		logger.Info("multi-tenant mode enabled", "tenants", len(tenants), "file", *tenantsFile)
	}
	logger.Info("secreta-serve listening",
		"addr", ln.Addr().String(), "workers", *workers, "data_dir", *dataDir)
	opts := server.Options{
		Workers:               *workers,
		MaxBodyBytes:          *maxBody,
		MaxConcurrentJobs:     *maxConcurrent,
		MaxPendingJobs:        *maxPending,
		CacheMaxEntries:       *cacheEntries,
		CacheMaxBytes:         *cacheBytes,
		RegistryMaxDatasets:   *registryDatasets,
		RegistryMaxBytes:      *registryBytes,
		JobTimeout:            *jobTimeout,
		DegradedProbeInterval: *degradedProbe,
		Tenants:               tenants,
		DataMaxBytes:          *dataMaxBytes,
		GCInterval:            *gcInterval,
		Logger:                logger,
	}
	stOpts := store.Options{
		SnapshotEvery:   *snapshotEvery,
		CacheMaxEntries: *diskCacheEntries,
		CacheMaxBytes:   *diskCacheBytes,
		FS:              faultfs.WithRetry(faultfs.OS, faultfs.RetryPolicy{Attempts: *storeRetries}),
		Logger:          logger,
	}
	if err := run(ctx, ln, debugLn, opts, *dataDir, stOpts); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger for the chosen -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("secreta-serve: unknown -log-format %q (want text or json)", format)
}

// run serves the API on ln until ctx is cancelled, then drains in-flight
// requests for up to 5s and closes the store (final journal snapshot).
// debugLn, when non-nil, serves net/http/pprof (http.DefaultServeMux) on
// a separate listener for the life of the process — profiling traffic
// never shares a port with the API. Split from main so tests can drive it
// on ephemeral listeners and a temp data dir.
func run(ctx context.Context, ln, debugLn net.Listener, opts server.Options, dataDir string, stOpts store.Options) error {
	if dataDir != "" {
		st, err := store.Open(dataDir, stOpts)
		if err != nil {
			return fmt.Errorf("secreta-serve: %w", err)
		}
		defer st.Close()
		opts.Store = st
	}
	api, err := server.New(ctx, opts)
	if err != nil {
		return fmt.Errorf("secreta-serve: %w", err)
	}
	srv := &http.Server{
		Handler:     api.Handler(),
		ReadTimeout: 30 * time.Second,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var debugSrv *http.Server
	if debugLn != nil {
		// The pprof handlers register themselves on http.DefaultServeMux at
		// import time; serving that mux here (and only here) keeps them off
		// the API listener.
		debugSrv = &http.Server{
			Handler:     http.DefaultServeMux,
			ReadTimeout: 30 * time.Second,
		}
		go func() {
			if err := debugSrv.Serve(debugLn); err != nil && err != http.ErrServerClosed {
				slog.Error("debug listener failed", "err", err)
			}
		}()
	}
	select {
	case err := <-errc:
		return fmt.Errorf("secreta-serve: %w", err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if debugSrv != nil {
			debugSrv.Shutdown(shutdownCtx)
		}
		return srv.Shutdown(shutdownCtx)
	}
}
