package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"secreta/internal/obs"
	"secreta/internal/store"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued Status = "queued"
	// StatusRunning is defined from the journal's constant: replaying a
	// "start" op moves the durable record to this exact string.
	StatusRunning   Status = store.StatusRunning
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
	// StatusTimedOut marks a job stopped by the server's or the request's
	// deadline — journaled like any other terminal state, and distinct
	// from StatusCancelled so "the operator's budget expired" is never
	// mistaken for "the client asked to stop".
	StatusTimedOut Status = "timed_out"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled || s == StatusTimedOut
}

// validListState reports whether s can appear in a GET /jobs state filter.
func validListState(s Status) bool {
	switch s {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled, StatusTimedOut:
		return true
	}
	return false
}

// JobView is the JSON shape of a job's status report.
type JobView struct {
	ID          string  `json:"job"`
	Kind        string  `json:"kind"`
	Status      Status  `json:"status"`
	Error       string  `json:"error,omitempty"`
	SubmittedAt string  `json:"submitted_at"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	DurationSec float64 `json:"duration_s,omitempty"`
	// Recovered marks a job restored from the journal after a restart —
	// either rehydrated terminal state or a re-queued in-flight job.
	Recovered bool `json:"recovered,omitempty"`
	// Tenant is the owning tenant in multi-tenant mode (empty otherwise).
	// Listings are already scoped to the caller, so this is confirmation,
	// not disclosure.
	Tenant string `json:"tenant,omitempty"`
}

// job is one asynchronous anonymization request being tracked by the
// store. The run goroutine owns result/err; everything else is guarded by
// mu.
type job struct {
	id        string
	seq       int // numeric submission order; IDs are for display, seq for eviction
	kind      string
	cancel    context.CancelFunc
	js        *jobStore
	recovered bool
	// tenant owns the job in multi-tenant mode ("" single-tenant).
	// Immutable after creation; journaled so ownership survives restart.
	tenant string

	mu sync.Mutex
	// trace records the job's lifecycle span tree. Set at submission (and
	// for re-queued recovered jobs). It is nil for terminal jobs whose
	// trace is on disk — persisted at finish by a durable server, or
	// rehydrated from the journal — and served from the store's trace
	// blobs. The run goroutine reads it freely until finish; anyone else
	// goes through liveTrace.
	trace     *obs.Trace
	status    Status
	err       string
	result    *jobResult // valid once status == StatusDone
	load      func() (*jobResult, error)
	submitted time.Time
	started   time.Time
	finished  time.Time
	// clientCancel marks a DELETE-initiated cancellation, so it is
	// journaled terminally even when it races process shutdown (a
	// shutdown-driven cancel is deliberately left un-finalized and
	// re-queued; an explicit client cancel must stay cancelled).
	clientCancel bool
}

// requestCancel marks the cancellation as client-initiated and fires it.
func (j *job) requestCancel() {
	j.mu.Lock()
	j.clientCancel = true
	j.mu.Unlock()
	j.cancel()
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Kind:        j.kind,
		Status:      j.status,
		Error:       j.err,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		Recovered:   j.recovered,
		Tenant:      j.tenant,
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		// A job cancelled while still queued finishes without starting.
		if !j.started.IsZero() {
			v.DurationSec = j.finished.Sub(j.started).Seconds()
		}
	}
	return v
}

func (j *job) start() {
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.js.journal(func(jl *store.Journal) error { return jl.Start(j.id) })
}

// finish records the run outcome. ctxErr is the job context's error at
// completion: deadline expiry maps to StatusTimedOut, any other context
// error to StatusCancelled, so pollers can tell "stopped by budget" from
// "stopped by request" from "failed". hasResult records that the payload
// was durably persisted before this transition became observable.
//
// The terminal status is published last. Before it, the journal's Finish
// record is appended, the trace blob is written, and release (the job's
// registry pin; nil when there is none) runs — so a client that sees the
// terminal status can read the trace from disk, or delete the dataset,
// at once. Only the job's own run goroutine (or recovery, for a job that
// never ran) calls finish.
func (j *job) finish(payload *jobResult, err error, ctxErr error, hasResult bool, release func()) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	byClient := j.clientCancel
	j.mu.Unlock()
	finished := time.Now()
	status, errMsg := outcomeStatus(payload, err, ctxErr)
	tr := j.trace
	// A cancellation caused by process shutdown is deliberately NOT
	// journaled: the durable record stays in-flight, so the next boot
	// re-queues the job — a graceful restart and a crash converge on the
	// same "interrupted work is re-run" outcome instead of racing the
	// journal's close to decide between "cancelled forever" and
	// "re-queued". Client cancellations (DELETE) journal normally, even
	// when they race shutdown — explicitly stopped work must stay
	// stopped. The trace follows the same rule: a re-queued job's next
	// run records a fresh trace, so nothing is persisted here.
	if status == StatusCancelled && !byClient && j.js.isShuttingDown() {
		if tr != nil {
			tr.Finish()
		}
	} else {
		j.js.journal(func(jl *store.Journal) error {
			return jl.Finish(j.id, string(status), errMsg, hasResult)
		})
		// Close the trace with the terminal status and persist the final
		// snapshot beside the journal record, so GET /jobs/{id}/trace
		// keeps answering after a restart. Once the blob is stored the
		// route serves it from disk and the job drops its copy; a failed
		// write keeps the trace in memory.
		if tr != nil {
			tr.Root().SetAttr("status", string(status))
			tr.Finish()
			if j.js.persistTrace(j.id, tr) {
				tr = nil
			}
		}
	}
	if release != nil {
		release()
	}
	j.mu.Lock()
	j.status, j.err, j.finished, j.trace = status, errMsg, finished, tr
	if status == StatusDone {
		j.result = payload
	}
	j.mu.Unlock()
}

// outcomeStatus maps a run outcome to its terminal status and error text.
func outcomeStatus(payload *jobResult, err error, ctxErr error) (Status, string) {
	switch {
	case err == nil && payload != nil:
		// A payload with no error is completed work, even if the context
		// expired in the instant between fn returning and this check — a
		// job that beat its deadline must not be reported timed_out.
		return StatusDone, ""
	case errors.Is(ctxErr, context.DeadlineExceeded):
		return StatusTimedOut, fmt.Sprintf("job exceeded its deadline: %v", ctxErr)
	case ctxErr != nil:
		if err != nil {
			return StatusCancelled, err.Error()
		}
		return StatusCancelled, ""
	case err != nil:
		return StatusFailed, err.Error()
	}
	return StatusDone, ""
}

// liveTrace returns the job's in-memory trace: nil for a terminal job
// whose trace a durable server has persisted (or rehydrated from the
// journal), which GET /jobs/{id}/trace then serves from disk.
func (j *job) liveTrace() *obs.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// snapshot returns the job's terminal view, lazily rehydrating a result
// that is still on disk after a restart (for a chunked anonymize result
// only the meta frame is loaded — the records stay on disk and stream per
// request). A load failure demotes the job to failed in memory — the
// status endpoints must agree with the result endpoint, not keep claiming
// done for a result that is gone. The durable record is left untouched:
// the next boot retries the load.
func (j *job) snapshot() (Status, *jobResult, string) {
	j.mu.Lock()
	if j.status != StatusDone || j.result != nil || j.load == nil {
		defer j.mu.Unlock()
		return j.status, j.result, j.err
	}
	load := j.load
	j.mu.Unlock()
	// The blob read happens off-lock so a slow disk cannot stall view()
	// (and with it every job listing). Concurrent snapshots may both
	// read the blob; the double read is benign and last-writer-wins on
	// identical bytes.
	payload, err := load()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return j.status, j.result, j.err
	}
	if err != nil {
		j.status = StatusFailed
		j.err = fmt.Sprintf("result lost: %v", err)
		j.load = nil
		return j.status, nil, j.err
	}
	if j.result == nil {
		j.result = payload
	}
	return j.status, j.result, j.err
}

// jobStore issues sequential job IDs and tracks jobs, evicting the oldest
// finished jobs (results included) once the population exceeds max — a
// long-lived server must not grow without bound. With a journal attached,
// every transition is WAL-logged and evictions delete the durable record
// and result blob too.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	max  int
	jobs map[string]*job

	st     *store.Store // nil: memory-only
	logger *slog.Logger
	// shuttingDown reports whether the server's base context is done —
	// shutdown-driven cancellations are left un-finalized in the journal
	// so the next boot re-queues them (see job.finish).
	shuttingDown func() bool
	// onJournalError, when set, receives every failed journal append so
	// the server can classify it and latch degraded mode on a permanent
	// storage fault.
	onJournalError func(error)
}

// log returns the store's structured logger (the process default when
// none was attached — memory-only stores and tests).
func (s *jobStore) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// isShuttingDown is nil-safe for memory-only stores and tests.
func (s *jobStore) isShuttingDown() bool {
	return s.shuttingDown != nil && s.shuttingDown()
}

func newJobStore(max int) *jobStore {
	return &jobStore{max: max, jobs: make(map[string]*job)}
}

// attachStore wires the data directory in — the journal and the per-job
// blob directories — and aligns the ID sequence past everything the
// journal has seen, so recovered and new jobs never collide. Must be
// called before the store takes traffic.
func (s *jobStore) attachStore(st *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st = st
	if seq := st.Journal.Seq(); seq > s.seq {
		s.seq = seq
	}
}

// persistTrace serializes a finished job's trace snapshot into the trace
// blob dir and reports whether it is stored. Failures degrade the trace
// to memory-only (lost on restart), never the job itself.
func (s *jobStore) persistTrace(id string, tr *obs.Trace) bool {
	if s.st == nil {
		return false
	}
	data, err := json.Marshal(tr.View())
	if err == nil {
		err = s.st.Traces.Put(id, data)
	}
	if err != nil {
		s.log().Warn("persisting job trace failed", "job_id", id, "err", err)
		return false
	}
	return true
}

// journal runs fn against the attached journal. Journal failures are
// logged, not propagated: the in-memory state has already transitioned,
// and refusing service because the WAL hiccupped would turn a durability
// bug into an availability one. (The record is then simply absent on
// replay — the same outcome as crashing a moment earlier.)
func (s *jobStore) journal(fn func(*store.Journal) error) {
	if s.st == nil {
		return
	}
	if err := fn(s.st.Journal); err != nil {
		s.log().Error("journal append failed", "err", err)
		if s.onJournalError != nil {
			s.onJournalError(err)
		}
	}
}

// add registers a new job, atomically rejecting it when the number of
// non-terminal jobs has reached maxPending (reject == "server") or, in
// multi-tenant mode, when the owning tenant is at tenantPending
// (reject == "tenant") — both checks happen under the store lock so
// concurrent submissions cannot overshoot either cap. body and
// datasetRef are journaled, with the tenant, so a crash can re-queue the
// job with ownership intact.
func (s *jobStore) add(kind string, cancel context.CancelFunc, maxPending int, body []byte, datasetRef, tenant string, tenantPending int) (j *job, reject string) {
	s.mu.Lock()
	if maxPending > 0 && s.pendingLocked("") >= maxPending {
		s.mu.Unlock()
		return nil, "server"
	}
	if tenant != "" && tenantPending > 0 && s.pendingLocked(tenant) >= tenantPending {
		s.mu.Unlock()
		return nil, "tenant"
	}
	s.seq++
	j = &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		seq:       s.seq,
		kind:      kind,
		cancel:    cancel,
		js:        s,
		tenant:    tenant,
		status:    StatusQueued,
		submitted: time.Now(),
	}
	// The trace's root span opens at submission, so queue wait is visible
	// in the tree from the first snapshot.
	j.trace = obs.New(j.id)
	j.trace.Root().SetAttr("kind", kind)
	s.jobs[j.id] = j
	evicted := s.evictLocked()
	s.mu.Unlock()
	// The fsync'd appends happen outside the lock so job-API reads never
	// stall behind disk I/O. Per-job WAL ordering still holds: the Submit
	// record is durable before add returns, and the caller only starts
	// the job (Start/Finish records) after that.
	s.journal(func(jl *store.Journal) error {
		return jl.Submit(store.JobRecord{
			ID: j.id, Seq: j.seq, Kind: kind, Status: string(StatusQueued),
			DatasetRef: datasetRef, Body: body, SubmittedAt: j.submitted,
			Tenant: tenant,
		})
	})
	s.dropDurable(evicted)
	return j, ""
}

// restore re-inserts a job from its journal record during recovery: a
// terminal job keeps its status (and lazily loads its result through
// load); an in-flight one comes back as queued, to be re-run by the
// caller. Restore does not journal — the record already exists.
func (s *jobStore) restore(rec store.JobRecord, load func() (*jobResult, error), cancel context.CancelFunc) *job {
	status := Status(rec.Status)
	j := &job{
		id:        rec.ID,
		seq:       rec.Seq,
		kind:      rec.Kind,
		cancel:    cancel,
		js:        s,
		recovered: true,
		tenant:    rec.Tenant,
		status:    status,
		err:       rec.Error,
		load:      load,
		submitted: rec.SubmittedAt,
	}
	if status.Terminal() {
		// Terminal jobs keep their persisted trace snapshot (served from
		// the trace blob dir); no live trace is opened.
		j.started = rec.StartedAt
		j.finished = rec.FinishedAt
	} else {
		// A re-queued job records a fresh trace for its re-run.
		j.status = StatusQueued
		j.trace = obs.New(j.id)
		j.trace.Root().SetAttr("kind", rec.Kind)
		j.trace.Root().SetAttr("recovered", "true")
	}
	s.mu.Lock()
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
	s.jobs[j.id] = j
	evicted := s.evictLocked()
	s.mu.Unlock()
	s.dropDurable(evicted)
	return j
}

// dropDurable erases journal records and every per-job blob (result,
// result stream, trace). Callers invoke it outside s.mu — it fsyncs.
func (s *jobStore) dropDurable(ids []string) {
	if s.st == nil {
		return
	}
	for _, id := range ids {
		s.journal(func(jl *store.Journal) error { return jl.Delete(id) })
		for _, b := range s.st.JobBlobs() {
			if err := b.Delete(id); err != nil {
				s.log().Warn("deleting job blob failed", "job_id", id, "dir", b.Dir(), "err", err)
			}
		}
	}
}

// evictLocked drops the oldest terminal jobs until the store fits max
// and returns their IDs for durable cleanup (done by the caller, off-lock).
func (s *jobStore) evictLocked() []string {
	if s.max <= 0 {
		return nil
	}
	return s.dropOldestTerminalLocked(len(s.jobs) - s.max)
}

// remove deletes a job record outright; it reports whether id existed.
func (s *jobStore) remove(id string) bool {
	s.mu.Lock()
	if _, ok := s.jobs[id]; !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.jobs, id)
	s.mu.Unlock()
	s.dropDurable([]string{id})
	return true
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobQuery filters and paginates a job listing.
type jobQuery struct {
	state    Status // "" matches every state
	afterSeq int    // only jobs submitted after this sequence number
	limit    int    // <= 0: unlimited
	// tenant scopes the listing to one tenant's jobs. Enforced before
	// pagination, so an `after=` cursor naming another tenant's job ID
	// cannot surface foreign jobs — the cursor is just a sequence
	// watermark and the tenant filter still applies to every row.
	tenant string
	// tenantScoped turns the tenant filter on even for tenant == "" (it
	// cannot be inferred from tenant alone: single-tenant mode matches
	// everything, multi-tenant mode must match nothing for an empty owner).
	tenantScoped bool
}

// list returns the matching jobs in submission order (paginated by the
// query) and the total number of matches before pagination.
func (s *jobStore) list(q jobQuery) (views []JobView, total int) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	views = []JobView{}
	for _, j := range jobs {
		if q.tenantScoped && j.tenant != q.tenant {
			continue
		}
		v := j.view()
		if q.state != "" && v.Status != q.state {
			continue
		}
		total++
		if j.seq <= q.afterSeq {
			continue
		}
		if q.limit > 0 && len(views) >= q.limit {
			continue
		}
		views = append(views, v)
	}
	return views, total
}

// parseJobSeq derives a job's sequence number from its ID ("j-%06d").
// The `after` list cursor uses this instead of a table lookup so a
// cursor job that has since been evicted or deleted keeps working —
// tail-polling must not wedge because the poller fell behind retention.
func parseJobSeq(id string) (int, error) {
	num, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, fmt.Errorf("malformed job ID %q", id)
	}
	seq, err := strconv.Atoi(num)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("malformed job ID %q", id)
	}
	return seq, nil
}

// pendingLocked counts jobs that have not reached a terminal status,
// only tenant's when tenant is set; the caller holds s.mu.
func (s *jobStore) pendingLocked(tenant string) int {
	n := 0
	for _, j := range s.jobs {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		j.mu.Lock()
		if !j.status.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// counts reports job-state counts overall and per tenant from one pass
// under the lock, so the telemetry snapshot's jobs block and its tenant
// breakdown describe the same table. Jobs with no owner (single-tenant
// era, or a tenant removed from the tenants file) land under "".
func (s *jobStore) counts() (all map[Status]int, byTenant map[string]map[Status]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all = make(map[Status]int)
	byTenant = make(map[string]map[Status]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		all[st]++
		m := byTenant[j.tenant]
		if m == nil {
			m = make(map[Status]int)
			byTenant[j.tenant] = m
		}
		m[st]++
	}
	return all, byTenant
}

// dropOldestTerminalLocked removes up to n of the oldest terminal jobs
// (by submission sequence; IDs are zero-padded for display and would
// misorder lexicographically past the padding width) from the table and
// returns their IDs for durable cleanup, which the caller does off-lock.
// Queued and running jobs are never touched. Both retention levers use
// it: the MaxJobs count cap and the GC sweeper's byte cap.
func (s *jobStore) dropOldestTerminalLocked(n int) []string {
	if n <= 0 {
		return nil
	}
	var terminal []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		done := j.status.Terminal()
		j.mu.Unlock()
		if done {
			terminal = append(terminal, j)
		}
	}
	sort.Slice(terminal, func(a, b int) bool { return terminal[a].seq < terminal[b].seq })
	if len(terminal) > n {
		terminal = terminal[:n]
	}
	ids := make([]string, 0, len(terminal))
	for _, j := range terminal {
		delete(s.jobs, j.id)
		ids = append(ids, j.id)
	}
	return ids
}

// evictOldestTerminal removes up to n of the oldest terminal jobs,
// journal record, result and trace blobs included, and returns their
// IDs — the GC lever for reclaiming result bytes without risking
// in-flight state.
func (s *jobStore) evictOldestTerminal(n int) []string {
	s.mu.Lock()
	ids := s.dropOldestTerminalLocked(n)
	s.mu.Unlock()
	s.dropDurable(ids)
	return ids
}
