package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"secreta/internal/faultfs"
	"secreta/internal/server"
	"secreta/internal/store"
)

// env is one running secreta-serve instance: the real server.New handler
// behind a loopback listener, plus the client transport of the benchmark's
// closed-loop client: one connection.
type env struct {
	base    string
	hc      *http.Client
	httpSrv *http.Server
	served  chan error
	cancel  context.CancelFunc
	st      *store.Store
	dir     string
	// fs counts the store's filesystem operations; nil unless the run is
	// traced and durable.
	fs *countFS
}

// bootOptions picks the server configuration a workload runs against.
type bootOptions struct {
	// dataDir, when non-empty, makes the server durable over a store opened
	// there the way cmd/secreta-serve opens it.
	dataDir string
	// registryMaxDatasets caps the registry's RAM cache (0: default).
	registryMaxDatasets int
	// countFS wraps the store's filesystem in a counting layer.
	countFS bool
}

func boot(opts bootOptions) (*env, error) {
	ctx, cancel := context.WithCancel(context.Background())
	e := &env{cancel: cancel, dir: opts.dataDir, served: make(chan error, 1)}
	// Per-job INFO lines (one per algorithm phase) would flood the
	// benchmark's output; warnings and errors still reach stderr.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	sopts := server.Options{RegistryMaxDatasets: opts.registryMaxDatasets, Logger: logger}
	if opts.dataDir != "" {
		var fsys faultfs.FS = faultfs.WithRetry(faultfs.OS, faultfs.RetryPolicy{Attempts: 3})
		if opts.countFS {
			e.fs = &countFS{FS: fsys}
			fsys = e.fs
		}
		st, err := store.Open(opts.dataDir, store.Options{FS: fsys, Logger: logger})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("opening store: %w", err)
		}
		e.st = st
		sopts.Store = st
	}
	srv, err := server.New(ctx, sopts)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: srv.Handler(), BaseContext: func(net.Listener) context.Context { return ctx }}
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	e.hc = &http.Client{Timeout: jobTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	if err := e.waitReady(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// waitReady polls /healthz until a durable server has replayed its
// journal (a memory-only server is born ready).
func (e *env) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Ready bool `json:"ready"`
		}
		if status, err := getJSON(e.hc, e.base+"/healthz", &h); err == nil && status == http.StatusOK && h.Ready {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server did not become ready within 30s")
}

// close stops the listener, cancels the server's context, closes the
// store and removes the data directory. Clients must have stopped: every
// job they submitted has finished by then.
func (e *env) close() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	e.cancel()
	if e.st != nil {
		errs = append(errs, e.st.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// countFS counts and times what the durable store asks of the
// filesystem: fsyncs (file and directory), renames and bytes written.
type countFS struct {
	faultfs.FS
	syncs, syncNS, renames, written atomic.Int64
}

// fsCounts is a snapshot of a countFS's counters.
type fsCounts struct{ syncs, syncNS, renames, written int64 }

func (c *countFS) snapshot() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	return fsCounts{c.syncs.Load(), c.syncNS.Load(), c.renames.Load(), c.written.Load()}
}

func (c *countFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (faultfs.File, error) { return c.wrap(c.FS.Open(name)) }

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *countFS) Create(name string) (faultfs.File, error) { return c.wrap(c.FS.Create(name)) }

func (c *countFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) SyncDir(dir string) error {
	defer c.timeSync(time.Now())
	return c.FS.SyncDir(dir)
}

func (c *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.written.Add(int64(len(data)))
	return c.FS.WriteFile(name, data, perm)
}

// Retries forwards the retry layer's counter, which the store reports on
// /stats when its filesystem exposes one.
func (c *countFS) Retries() uint64 {
	if r, ok := c.FS.(interface{ Retries() uint64 }); ok {
		return r.Retries()
	}
	return 0
}

func (c *countFS) timeSync(start time.Time) {
	c.syncs.Add(1)
	c.syncNS.Add(int64(time.Since(start)))
}

type countFile struct {
	faultfs.File
	fs *countFS
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f countFile) Sync() error {
	defer f.fs.timeSync(time.Now())
	return f.File.Sync()
}
