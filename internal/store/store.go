// Package store is the durable persistence layer of secreta-serve: a
// content-addressed blob store for registry datasets, an append-only
// checksummed write-ahead log (WAL) of job lifecycle transitions with
// periodic snapshot + truncation, and a disk-backed spill target for the
// engine's result cache. Everything the server must not lose across a
// restart lives under one data directory:
//
//	<data-dir>/
//	  datasets/<fingerprint>.json   dataset blobs (content-addressed)
//	  datasets/<fingerprint>.meta   cached {attrs, records, bytes} sidecar
//	  results/<job-id>.json         terminal job result payloads
//	  results/<job-id>.ndr          chunked record streams (framed, CRC'd)
//	  traces/<job-id>.json          terminal job trace snapshots (span trees)
//	  cache/<sha256(key)>.json      persisted result-cache entries
//	  journal/wal.log               append-only checksummed job journal
//	  journal/snapshot.json         job-table snapshot (WAL truncation point)
//
// Writes are crash-safe by construction: blobs and snapshots go through an
// fsync'd temp-file + rename in the same directory, and every WAL record
// is length-prefixed and CRC-checked so replay stops cleanly at a torn
// tail instead of refusing to boot. The package knows nothing about HTTP
// or the engine; internal/registry, internal/engine and internal/server
// consume it through narrow interfaces.
package store

import (
	"bytes"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"secreta/internal/faultfs"
)

// Default disk result-cache bounds, used when the operator does not tune
// -disk-cache-entries / -disk-cache-bytes; they keep a long-lived data
// directory from growing without bound. Oldest entries (by modification
// time) are trimmed past either cap.
const (
	DefaultDiskCacheEntries = 4096
	DefaultDiskCacheBytes   = 2 << 30 // 2 GiB of serialized results
)

// DefaultSnapshotEvery is the journal's default snapshot cadence: after
// this many WAL appends the job table is snapshotted and the log
// truncated, bounding both replay time and WAL size.
const DefaultSnapshotEvery = 256

// Options tunes a Store.
type Options struct {
	// SnapshotEvery is the number of WAL appends between automatic
	// snapshots (<= 0: DefaultSnapshotEvery).
	SnapshotEvery int
	// CacheMaxEntries / CacheMaxBytes bound the on-disk result cache
	// (<= 0: package defaults).
	CacheMaxEntries int
	CacheMaxBytes   int64
	// FS is the filesystem seam every durable byte flows through (nil:
	// the real filesystem). Production wraps it in faultfs.WithRetry so
	// transient I/O errors are absorbed; tests wire a faultfs.FaultFS to
	// inject failures at any point of the persist path.
	FS faultfs.FS
	// Logger receives WARN-level I/O diagnostics — trim failures, orphan
	// sweeps (nil: slog.Default()).
	Logger *slog.Logger
}

// Store is one opened data directory. Fields are independent sub-stores;
// all of them are safe for concurrent use.
type Store struct {
	// Dir is the data directory root.
	Dir string
	// Datasets holds registry dataset blobs, fingerprint-named.
	Datasets *DatasetStore
	// Results holds terminal job result payloads, job-ID-named.
	Results *BlobDir
	// ResultChunks holds framed, chunked record streams of terminal
	// anonymize jobs (results/<job-id>.ndr, next to the .json payloads) —
	// the on-disk form streaming delivery serves without ever loading a
	// whole result into memory.
	ResultChunks *ChunkedDir
	// Traces holds the final trace snapshot (JSON span tree) of each
	// terminal job, job-ID-named — what GET /jobs/{id}/trace serves after
	// a restart.
	Traces *BlobDir
	// Cache spills engine result-cache entries to disk.
	Cache *CacheStore
	// Journal is the WAL-backed job table.
	Journal *Journal

	fsys         faultfs.FS
	diag         *diag
	orphansSwept int

	// Blob stats are directory walks (a stat per file); cache them
	// briefly so a monitoring poller doesn't rescan an aging data dir
	// on every probe.
	statsMu    sync.Mutex
	statsAt    time.Time
	statsBlobs [5]BlobStats // datasets, results, result chunks, traces, cache
}

// statsTTL bounds how stale the cached blob-walk numbers can be.
const statsTTL = 2 * time.Second

// Open creates (or reopens) the data directory layout and replays the
// journal: after Open returns, Journal.Jobs reflects the last durable
// state, with any torn WAL tail repaired. Concurrent Opens of the same
// directory are not supported — the store is a single-process owner.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	d := newDiag(opts.Logger)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	datasets, err := newDatasetStore(fsys, d, filepath.Join(dir, "datasets"))
	if err != nil {
		return nil, err
	}
	results, err := newBlobDir(fsys, d, filepath.Join(dir, "results"), ".json")
	if err != nil {
		return nil, err
	}
	chunks, err := newBlobDir(fsys, d, filepath.Join(dir, "results"), ".ndr")
	if err != nil {
		return nil, err
	}
	traces, err := newBlobDir(fsys, d, filepath.Join(dir, "traces"), ".json")
	if err != nil {
		return nil, err
	}
	cache, err := newCacheStore(fsys, d, filepath.Join(dir, "cache"), opts.CacheMaxEntries, opts.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	// Sweep orphaned temp files from every directory atomic writes land
	// in, before the journal starts appending — the debris of any crash
	// mid-writeFileAtomic. The journal dir is swept too (snapshots go
	// through the same temp-file dance).
	swept := 0
	for _, sub := range layoutDirs(dir) {
		swept += sweepTempFiles(fsys, d.logger, sub)
	}
	journal, err := openJournal(fsys, filepath.Join(dir, "journal"), opts.SnapshotEvery)
	if err != nil {
		return nil, err
	}
	return &Store{
		Dir:          dir,
		Datasets:     datasets,
		Results:      results,
		ResultChunks: &ChunkedDir{chunks},
		Traces:       traces,
		Cache:        cache,
		Journal:      journal,
		fsys:         fsys,
		diag:         d,
		orphansSwept: swept,
	}, nil
}

// JobBlobs lists the blob directories that hold per-job state — result
// payloads, result streams and trace snapshots, all named by job ID. A
// job's blobs are dropped, and swept as orphans, together.
func (s *Store) JobBlobs() []*BlobDir {
	return []*BlobDir{s.Results, s.ResultChunks.BlobDir, s.Traces}
}

// OrphansSwept reports how many orphaned ".tmp-*" files Open removed —
// surfaced in the recovery block of GET /stats.
func (s *Store) OrphansSwept() int { return s.orphansSwept }

// ProbeWrite checks whether the data directory can take durable writes
// again: a full atomic write (temp file, fsync, rename, dir fsync) of a
// sentinel file, a read-back, and a removal. The degraded-mode probe
// loop calls this to decide when to re-arm writes after a storage fault.
func (s *Store) ProbeWrite() error {
	path := filepath.Join(s.Dir, ".probe")
	payload := []byte("secreta write probe\n")
	if err := writeFileAtomic(s.fsys, path, payload); err != nil {
		return fmt.Errorf("store: probe write: %w", err)
	}
	got, err := s.fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: probe read-back: %w", err)
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("store: probe read back %d bytes, want %d", len(got), len(payload))
	}
	if err := s.fsys.Remove(path); err != nil {
		return fmt.Errorf("store: probe cleanup: %w", err)
	}
	return nil
}

// Close snapshots the journal one last time (making the next boot replay
// nothing) and closes the WAL. The blob sub-stores are stateless and need
// no close.
func (s *Store) Close() error {
	return s.Journal.Close()
}

// BlobStats is the occupancy of one blob directory.
type BlobStats struct {
	Count int   `json:"count"`
	Bytes int64 `json:"bytes"`
}

// Stats is a point-in-time snapshot of the store's disk occupancy and
// journal health, surfaced on GET /stats. The result-cache caps ride
// along so operators can see the configured -disk-cache-entries /
// -disk-cache-bytes bounds next to the occupancy they govern.
type Stats struct {
	Datasets BlobStats `json:"datasets"`
	Results  BlobStats `json:"results"`
	// ResultStreams counts the chunked record-stream files next to the
	// plain result payloads.
	ResultStreams BlobStats `json:"result_streams"`
	// Traces counts the persisted terminal-job trace snapshots.
	Traces              BlobStats    `json:"traces"`
	ResultCache         BlobStats    `json:"result_cache"`
	ResultCacheMaxCount int          `json:"result_cache_max_count"`
	ResultCacheMaxBytes int64        `json:"result_cache_max_bytes"`
	Journal             JournalStats `json:"journal"`
	// TrimErrors counts failed removals/listings across every trim and GC
	// pass since boot — a nonzero, growing value means the disk can no
	// longer delete and the caps are not being enforced.
	TrimErrors uint64 `json:"trim_errors"`
	// IORetries counts transient I/O errors absorbed by the retry layer
	// (zero when the store runs without a faultfs.RetryFS).
	IORetries uint64 `json:"io_retries"`
}

// Stats snapshots the journal counters and the blob-directory occupancy
// (the directory walks are cached for statsTTL; journal numbers are
// always live).
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	if time.Since(s.statsAt) >= statsTTL {
		s.statsBlobs = [5]BlobStats{s.Datasets.Stats(), s.Results.Stats(), s.ResultChunks.Stats(), s.Traces.Stats(), s.Cache.Stats()}
		s.statsAt = time.Now()
	}
	blobs := s.statsBlobs
	s.statsMu.Unlock()
	maxEntries, maxBytes := s.Cache.Caps()
	var retries uint64
	if r, ok := s.fsys.(interface{ Retries() uint64 }); ok {
		retries = r.Retries()
	}
	return Stats{
		Datasets:            blobs[0],
		Results:             blobs[1],
		ResultStreams:       blobs[2],
		Traces:              blobs[3],
		ResultCache:         blobs[4],
		ResultCacheMaxCount: maxEntries,
		ResultCacheMaxBytes: maxBytes,
		Journal:             s.Journal.Stats(),
		TrimErrors:          s.diag.trimErrors.Load(),
		IORetries:           retries,
	}
}
