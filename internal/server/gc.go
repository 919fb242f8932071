package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"secreta/internal/registry"
)

// Disk GC / retention: with -data-max-bytes set on a durable server, a
// background sweeper keeps the data directory under the cap. Retention
// is pinned-and-recent-first — eviction takes, in order, (1) the oldest
// disk result-cache entries (always reconstructible), just enough to
// cover the overage, (2) the oldest unpinned
// terminal jobs' results and traces, (3) the oldest dataset blobs that
// no tenant claims and no job pins. In-flight state is never touched:
// queued/running jobs are not evictable, and a dataset referenced by any
// queued or running job holds a registry pin (or lazy reservation) that
// makes Remove fail. The journal directory is likewise never swept —
// the WAL's own snapshot cadence bounds it. A stuck file is counted
// (store trim_errors / gc errors) and skipped, never allowed to wedge
// the sweep.

// gcJobBatch is how many terminal jobs one eviction round drops before
// re-measuring disk usage — the re-walk is the expensive part.
const gcJobBatch = 8

// gcState is the sweeper's configuration and counters.
type gcState struct {
	maxBytes int64
	interval time.Duration
	now      func() time.Time
	// kick nudges the loop outside its ticker cadence (job completions
	// grow the results dir; waiting a full interval would let a burst
	// overshoot the cap for longer than necessary).
	kick chan struct{}
	// sweepMu serializes sweeps: an overlapping sweep would count files
	// another is still deleting as unreclaimable and evict datasets.
	sweepMu sync.Mutex

	sweeps          atomic.Uint64
	evictedJobs     atomic.Uint64
	evictedDatasets atomic.Uint64
	cacheTrimmed    atomic.Uint64
	errors          atomic.Uint64

	lastUsage atomic.Int64 // disk usage observed at the end of the last sweep
	lastSweep atomic.Int64 // unix seconds
}

// newGCState builds the sweeper state; now is injectable for tests.
func newGCState(maxBytes int64, interval time.Duration, now func() time.Time) *gcState {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &gcState{
		maxBytes: maxBytes,
		interval: interval,
		now:      now,
		kick:     make(chan struct{}, 1),
	}
}

// gcKick nudges the sweeper without blocking (no-op when GC is off or a
// nudge is already pending).
func (s *Server) gcKick() {
	if s.gc == nil {
		return
	}
	select {
	case s.gc.kick <- struct{}{}:
	default:
	}
}

// gcLoop runs the sweeper until ctx ends.
func (s *Server) gcLoop(ctx context.Context) {
	t := time.NewTicker(s.gc.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-s.gc.kick:
		}
		s.sweepOnce()
	}
}

// sweepOnce measures the data directory and evicts until it fits the
// cap (or nothing evictable remains). Exposed to tests so invariants can
// be asserted per sweep without timing games; the loop calls it too.
// It returns the disk usage after the sweep.
func (s *Server) sweepOnce() int64 {
	gc := s.gc
	gc.sweepMu.Lock()
	defer gc.sweepMu.Unlock()
	if !s.ready.Load() {
		// Journal replay is still re-pinning datasets for re-queued jobs;
		// sweeping now could evict a blob a recovering job is about to
		// reserve.
		return gc.lastUsage.Load()
	}
	gc.sweeps.Add(1)
	defer func() { gc.lastSweep.Store(gc.now().Unix()) }()
	usage := s.st.DiskUsage()
	if usage > gc.maxBytes {
		// Lever 1: the disk result cache. Every entry is a recomputable
		// cache hit, so under cap pressure it goes first — oldest entries,
		// just enough of them to cover the overage.
		if removed := s.st.Cache.Free(usage - gc.maxBytes); removed > 0 {
			gc.cacheTrimmed.Add(uint64(removed))
			usage = s.st.DiskUsage()
		}
	}
	// Lever 2: oldest unpinned terminal jobs — journal record, result
	// blob, chunk file and trace go together, so no orphan can outlive
	// its record. Queued/running jobs are not terminal and stay.
	for usage > gc.maxBytes {
		ids := s.jobs.evictOldestTerminal(gcJobBatch)
		if len(ids) == 0 {
			break
		}
		gc.evictedJobs.Add(uint64(len(ids)))
		usage = s.st.DiskUsage()
	}
	// Lever 3: dataset blobs nobody is using — unclaimed by every tenant
	// and unpinned by every job — oldest (mtime) first. registry.Remove
	// owns the pin check, so a job racing this sweep keeps its input.
	if usage > gc.maxBytes {
		for _, id := range s.st.Datasets.IDsByAge() {
			if usage <= gc.maxBytes {
				break
			}
			if s.tenants != nil && s.tenants.claimCount(id) > 0 {
				continue
			}
			switch err := s.registry.Remove(id); {
			case err == nil:
				gc.evictedDatasets.Add(1)
				usage = s.st.DiskUsage()
			case errors.Is(err, registry.ErrPinned):
				// In use; later sweeps retry once the pin drops.
			case errors.Is(err, registry.ErrNotFound):
				// On disk but not in the index — already being removed by a
				// concurrent delete; leave it to finish.
			default:
				// Stuck file (EIO and friends): count, skip, keep sweeping.
				// The store's own diag counted the trim error where it
				// happened.
				gc.errors.Add(1)
				s.log().Warn("gc: removing dataset failed", "dataset", id, "err", err)
			}
		}
	}
	gc.lastUsage.Store(usage)
	if usage > gc.maxBytes {
		s.log().Warn("gc: data dir still over cap after sweep",
			"usage_bytes", usage, "max_bytes", gc.maxBytes)
	}
	return usage
}

// gcView is the /stats and dashboard block for the sweeper.
type gcView struct {
	MaxBytes        int64  `json:"max_bytes"`
	UsageBytes      int64  `json:"usage_bytes"`
	Sweeps          uint64 `json:"sweeps"`
	EvictedJobs     uint64 `json:"evicted_jobs"`
	EvictedDatasets uint64 `json:"evicted_datasets"`
	CacheTrimmed    uint64 `json:"cache_trimmed"`
	Errors          uint64 `json:"errors"`
	LastSweepUnix   int64  `json:"last_sweep_unix,omitempty"`
}

// view snapshots the sweeper counters.
func (g *gcState) view() gcView {
	return gcView{
		MaxBytes:        g.maxBytes,
		UsageBytes:      g.lastUsage.Load(),
		Sweeps:          g.sweeps.Load(),
		EvictedJobs:     g.evictedJobs.Load(),
		EvictedDatasets: g.evictedDatasets.Load(),
		CacheTrimmed:    g.cacheTrimmed.Load(),
		Errors:          g.errors.Load(),
		LastSweepUnix:   g.lastSweep.Load(),
	}
}
