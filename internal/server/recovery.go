package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// recoveryInfo summarizes the boot-time replay for GET /stats.
type recoveryInfo struct {
	// Done flips once the server went ready; the other fields are final
	// from then on.
	Done bool `json:"done"`
	// DurationSec is the job-table replay time (the dataset index and
	// journal repair happen before the server exists and are not
	// included).
	DurationSec float64 `json:"duration_s"`
	// RestoredJobs counts terminal jobs rehydrated with their status (and
	// lazily loadable results); RequeuedJobs counts jobs that were in
	// flight at crash time and run again; FailedRequeues counts in-flight
	// jobs whose journaled request no longer prepares (e.g. its dataset
	// was deleted) — those come back as failed, not lost.
	RestoredJobs   int `json:"restored_jobs"`
	RequeuedJobs   int `json:"requeued_jobs"`
	FailedRequeues int `json:"failed_requeues"`
	// OrphansSwept counts the ".tmp-*" files store.Open removed — the
	// debris of atomic writes interrupted by the previous crash.
	OrphansSwept int `json:"orphans_swept"`
	// OrphanBlobsSwept counts committed result/trace blobs whose job
	// record is gone — a crash between a deletion's journal append and
	// its blob removal leaves these behind; recovery finishes the job so
	// no sweep double-deletes and no blob leaks.
	OrphanBlobsSwept int `json:"orphan_blobs_swept"`
	// RestoredClaims counts journaled tenant dataset claims rebuilt into
	// the in-RAM ownership table (multi-tenant mode only).
	RestoredClaims int `json:"restored_claims,omitempty"`
}

// loadResult rehydrates a terminal job's result from disk: a chunked
// record-stream file answers with its meta frame plus a reopenable disk
// stream (the records are never loaded whole — every request streams them
// frame by frame), a plain .json blob answers fully loaded.
func (s *Server) loadResult(id string) (*jobResult, error) {
	if s.st.ResultChunks.Has(id) {
		r, err := s.st.ResultChunks.Open(id)
		if err != nil {
			return nil, err
		}
		frame, err := r.Next()
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("reading result stream meta: %w", err)
		}
		var meta anonMeta
		if err := json.Unmarshal(frame, &meta); err != nil {
			return nil, fmt.Errorf("decoding result stream meta: %w", err)
		}
		return &jobResult{meta: &meta, recs: diskRecords{chunks: s.st.ResultChunks, id: id}}, nil
	}
	data, err := s.st.Results.Get(id)
	if err != nil {
		return nil, err
	}
	return &jobResult{full: data}, nil
}

// recover rebuilds the job table from the journal and re-queues work that
// was in flight when the last process died. It runs once, in the
// background, while the readiness gate holds traffic (only /healthz
// answers); jobs are restored in submission order so re-queued work
// re-enters the admission queue in its original sequence.
func (s *Server) recover() {
	start := time.Now()
	var info recoveryInfo
	info.RestoredClaims = s.restoreClaims()
	for _, rec := range s.st.Journal.Jobs() {
		if Status(rec.Status).Terminal() {
			var load func() (*jobResult, error)
			switch {
			case rec.HasResult:
				id := rec.ID
				load = func() (*jobResult, error) { return s.loadResult(id) }
			case Status(rec.Status) == StatusDone:
				// Journaled done but the result blob write failed before
				// the crash: the result endpoint must say so, not answer
				// an empty 200.
				load = func() (*jobResult, error) {
					return nil, fmt.Errorf("result blob was never persisted")
				}
			}
			s.jobs.restore(rec, load, nil)
			info.RestoredJobs++
			continue
		}
		// In flight at crash time: re-queue under a fresh context. The
		// journaled body goes through the same preparation as a live
		// submission — re-validating and, crucially, re-pinning its
		// dataset_ref (the dataset itself came back with the registry
		// index, so the pin loads it from disk on demand).
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := s.jobs.restore(rec, nil, cancel)
		// Ownership was checked at original submission; recovery must not
		// re-check it (the claim table is already restored, and failing a
		// re-queue over a racing delete would lose work), so no owner is
		// passed.
		p, err := s.prepareJob(rec.Kind, rec.Body, "")
		if err != nil {
			cancel()
			j.finish(nil, fmt.Errorf("re-queueing after restart: %w", err), nil, false, nil)
			info.FailedRequeues++
			continue
		}
		info.RequeuedJobs++
		go s.runJob(ctx, cancel, j, p)
	}
	info.OrphanBlobsSwept = s.sweepOrphanBlobs()
	info.DurationSec = time.Since(start).Seconds()
	info.OrphansSwept = s.st.OrphansSwept()
	info.Done = true
	s.recMu.Lock()
	s.recovery = info
	s.recMu.Unlock()
	s.ready.Store(true)
	js := s.st.Journal.Stats()
	s.log().Info("recovery complete",
		"orphan_blobs_swept", info.OrphanBlobsSwept,
		"restored_claims", info.RestoredClaims,
		"duration_s", info.DurationSec,
		"restored_jobs", info.RestoredJobs,
		"requeued_jobs", info.RequeuedJobs,
		"failed_requeues", info.FailedRequeues,
		"snapshot_jobs", js.Replay.SnapshotJobs,
		"wal_records", js.Replay.WALRecords,
		"torn_tail", js.Replay.TornTail,
	)
}

// restoreClaims rebuilds the tenant dataset-ownership table from the
// journal's claim records. A claim whose dataset blob no longer exists
// (crash between a blob's removal and its release records, or a removed
// tenant) is dropped — and its journal record released — rather than
// charging a tenant for bytes that are not on disk.
func (s *Server) restoreClaims() int {
	if s.tenants == nil {
		return 0
	}
	restored := 0
	for _, c := range s.st.Journal.DatasetClaims() {
		if _, err := s.registry.Describe(c.Ref); err != nil {
			if rerr := s.st.Journal.ReleaseDataset(c.Ref, c.Tenant); rerr != nil {
				s.log().Warn("releasing stale dataset claim failed",
					"dataset", c.Ref, "tenant", c.Tenant, "err", rerr)
			}
			continue
		}
		s.tenants.restoreClaim(c)
		restored++
	}
	return restored
}

// sweepOrphanBlobs removes committed result, stream and trace blobs
// whose job is absent from the restored job table — the leftovers of a
// deletion (GC eviction, explicit DELETE, retention) that crashed after
// its journal append but before the blob unlink. Running after the job
// table is rebuilt makes the sweep idempotent: a blob either has a live
// record (kept) or none (deleted once, here).
func (s *Server) sweepOrphanBlobs() int {
	swept := 0
	for _, b := range s.st.JobBlobs() {
		names, err := b.Names()
		if err != nil {
			continue
		}
		for _, id := range names {
			if s.jobs.get(id) != nil {
				continue
			}
			if err := b.Delete(id); err != nil {
				s.log().Warn("sweeping orphan blob failed", "dir", b.Dir(), "job_id", id, "err", err)
				continue
			}
			swept++
		}
	}
	return swept
}
