package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secreta/internal/store"
)

// Multi-tenant scoping: with Options.Tenants configured (the
// -tenants-file), every data route requires an API key (Authorization:
// Bearer <key> or X-API-Key: <key>) and resolves to a tenant. Datasets
// and jobs are stamped with their owning tenant — cross-tenant reads and
// deletes answer 404, exactly as if the resource did not exist, so a
// tenant cannot even probe for another tenant's content-addressed refs.
// Ownership is journaled (job records carry the tenant; dataset claims
// are their own WAL ops), so scoping survives a restart. Admission is
// tenant-fair: per-tenant token buckets gate POSTs (429 + Retry-After +
// X-RateLimit-* headers), stored-bytes and pending-jobs quotas answer
// 403/429 with a machine-readable reason, and admission (dispatch.go)
// shares the job slots across the tenants' queues by weighted
// round-robin. Without a tenants file, none of this engages: every job
// waits in one FIFO queue.

// TenantConfig is one entry of the tenants file.
type TenantConfig struct {
	// ID names the tenant in job records, metrics labels and logs.
	ID string `json:"id"`
	// Key is the API key clients present. Keys are compared literally.
	Key string `json:"key"`
	// Weight is the tenant's share of the job slots under weighted
	// round-robin dispatch (default 1).
	Weight int `json:"weight,omitempty"`
	// RatePerSec caps the tenant's POST admission rate via a token
	// bucket; 0 disables rate limiting for the tenant.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: ceil(RatePerSec), min 1).
	Burst int `json:"burst,omitempty"`
	// MaxStoredBytes caps the tenant's claimed dataset bytes (approximate
	// in-RAM size, the registry's cost unit); 0 is unlimited.
	MaxStoredBytes int64 `json:"max_stored_bytes,omitempty"`
	// MaxConcurrentJobs caps the tenant's simultaneously running jobs; 0
	// is unlimited (the server-wide slot count still applies).
	MaxConcurrentJobs int `json:"max_concurrent_jobs,omitempty"`
	// MaxPendingJobs caps the tenant's queued+running jobs; past it
	// submissions answer 429 with reason quota_pending_jobs. 0 is
	// unlimited (the server-wide -max-pending still applies).
	MaxPendingJobs int `json:"max_pending_jobs,omitempty"`
}

// tenantsFile is the JSON document -tenants-file points at.
type tenantsFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// tenantIDPattern keeps tenant IDs safe as metrics label values and log
// fields: no quotes, whitespace or escapes to smuggle.
var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// LoadTenantsFile reads and validates a tenants file. An empty path
// returns nil (single-tenant mode).
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	var tf tenantsFile
	if err := decodeStrict(data, &tf); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	if err := ValidateTenants(tf.Tenants); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return tf.Tenants, nil
}

// ValidateTenants checks a tenant set for the invariants the server
// depends on: at least one tenant, label-safe unique IDs, unique
// non-empty keys, and non-negative tunables.
func ValidateTenants(cfgs []TenantConfig) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("no tenants defined")
	}
	ids := make(map[string]bool, len(cfgs))
	keys := make(map[string]bool, len(cfgs))
	for i, c := range cfgs {
		if !tenantIDPattern.MatchString(c.ID) {
			return fmt.Errorf("tenant %d: invalid id %q (want %s)", i, c.ID, tenantIDPattern)
		}
		if ids[c.ID] {
			return fmt.Errorf("tenant %d: duplicate id %q", i, c.ID)
		}
		ids[c.ID] = true
		if c.Key == "" || strings.ContainsAny(c.Key, " \t\r\n") {
			return fmt.Errorf("tenant %q: key must be non-empty and contain no whitespace", c.ID)
		}
		if keys[c.Key] {
			return fmt.Errorf("tenant %q: key already assigned to another tenant", c.ID)
		}
		keys[c.Key] = true
		if c.Weight < 0 || c.RatePerSec < 0 || c.Burst < 0 ||
			c.MaxStoredBytes < 0 || c.MaxConcurrentJobs < 0 || c.MaxPendingJobs < 0 {
			return fmt.Errorf("tenant %q: negative limits are not allowed", c.ID)
		}
	}
	return nil
}

// tenantState is one tenant's runtime accounting: the token bucket, the
// stored-bytes figure the quota gates on, and lifetime counters.
type tenantState struct {
	cfg TenantConfig

	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time

	storedBytes atomic.Int64 // claimed dataset bytes (quota unit)
	rateLimited atomic.Uint64
	rejected    atomic.Uint64 // quota rejections (403/429 with a reason)
	dispatched  atomic.Uint64 // jobs granted a slot by admission
}

// weight resolves the effective WRR weight (default 1).
func (t *tenantState) weight() int {
	if t.cfg.Weight <= 0 {
		return 1
	}
	return t.cfg.Weight
}

// burst resolves the effective bucket capacity.
func (t *tenantState) burst() float64 {
	if t.cfg.Burst > 0 {
		return float64(t.cfg.Burst)
	}
	b := math.Ceil(t.cfg.RatePerSec)
	if b < 1 {
		b = 1
	}
	return b
}

// rateDecision is one token-bucket verdict plus everything the rate
// headers need.
type rateDecision struct {
	ok bool
	// retryAfter is the wait (seconds, >= 1) until a token is available;
	// meaningful when !ok.
	retryAfter int
	// remaining is the whole tokens left after the decision.
	remaining int
	// reset is the unix second the bucket refills completely.
	reset int64
	// limited reports whether the tenant has rate limiting configured at
	// all (no headers are emitted otherwise).
	limited bool
}

// takeToken runs one token-bucket decision at time now.
func (t *tenantState) takeToken(now time.Time) rateDecision {
	rate := t.cfg.RatePerSec
	if rate <= 0 {
		return rateDecision{ok: true}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	burst := t.burst()
	if t.lastRefill.IsZero() {
		t.tokens = burst
	} else if dt := now.Sub(t.lastRefill).Seconds(); dt > 0 {
		t.tokens = math.Min(burst, t.tokens+dt*rate)
	}
	t.lastRefill = now
	d := rateDecision{limited: true}
	if t.tokens >= 1 {
		t.tokens--
		d.ok = true
	} else {
		d.retryAfter = int(math.Ceil((1 - t.tokens) / rate))
		if d.retryAfter < 1 {
			d.retryAfter = 1
		}
		t.rateLimited.Add(1)
	}
	d.remaining = int(t.tokens)
	d.reset = now.Unix() + int64(math.Ceil((burst-t.tokens)/rate))
	return d
}

// tenantSet is the server's tenant table plus the dataset-ownership view
// (claims) the quota accounting and scoping decisions read. Claims are
// mirrored to the journal when the server is durable; the RAM view here
// is authoritative for request handling either way.
type tenantSet struct {
	byKey map[string]*tenantState
	byID  map[string]*tenantState
	ids   []string // sorted, for deterministic metrics/stats ordering
	now   func() time.Time

	mu sync.Mutex
	// claims: dataset ref -> tenant id -> claimed bytes. A blob is
	// deletable only once no tenant claims it.
	claims map[string]map[string]int64
}

// newTenantSet indexes the validated configs. now is injectable for
// rate-limit tests.
func newTenantSet(cfgs []TenantConfig, now func() time.Time) *tenantSet {
	if now == nil {
		now = time.Now
	}
	ts := &tenantSet{
		byKey:  make(map[string]*tenantState, len(cfgs)),
		byID:   make(map[string]*tenantState, len(cfgs)),
		now:    now,
		claims: make(map[string]map[string]int64),
	}
	for _, c := range cfgs {
		st := &tenantState{cfg: c}
		ts.byKey[c.Key] = st
		ts.byID[c.ID] = st
		ts.ids = append(ts.ids, c.ID)
	}
	sort.Strings(ts.ids)
	return ts
}

// authenticate resolves the request's API key to a tenant; nil when the
// key is missing or unknown (the two are indistinguishable to a caller,
// deliberately).
func (ts *tenantSet) authenticate(r *http.Request) *tenantState {
	key := ""
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			key = strings.TrimSpace(rest)
		}
	}
	if key == "" {
		key = strings.TrimSpace(r.Header.Get("X-API-Key"))
	}
	if key == "" {
		return nil
	}
	return ts.byKey[key]
}

// restoreClaim folds one journaled claim into the RAM view at boot —
// bypassing the journal writethrough, since the record already exists.
func (ts *tenantSet) restoreClaim(c store.DatasetClaim) {
	st := ts.byID[c.Tenant]
	ts.mu.Lock()
	tenants, ok := ts.claims[c.Ref]
	if !ok {
		tenants = make(map[string]int64)
		ts.claims[c.Ref] = tenants
	}
	_, had := tenants[c.Tenant]
	tenants[c.Tenant] = c.Bytes
	ts.mu.Unlock()
	if st != nil && !had {
		st.storedBytes.Add(c.Bytes)
	}
}

// claim records tenant ownership of ref. It reports whether this call
// added a new claim (false: the tenant already owned the ref, bytes
// unchanged).
func (ts *tenantSet) claim(ref, tenant string, bytes int64) bool {
	ts.mu.Lock()
	tenants, ok := ts.claims[ref]
	if !ok {
		tenants = make(map[string]int64)
		ts.claims[ref] = tenants
	}
	if _, had := tenants[tenant]; had {
		ts.mu.Unlock()
		return false
	}
	tenants[tenant] = bytes
	ts.mu.Unlock()
	if st := ts.byID[tenant]; st != nil {
		st.storedBytes.Add(bytes)
	}
	return true
}

// release drops tenant's claim on ref. had reports whether the claim
// existed; last reports whether it was the final claim (the blob is now
// unreferenced by every tenant).
func (ts *tenantSet) release(ref, tenant string) (had, last bool) {
	var bytes int64
	ts.mu.Lock()
	tenants, ok := ts.claims[ref]
	if ok {
		bytes, had = tenants[tenant]
		if had {
			delete(tenants, tenant)
			if len(tenants) == 0 {
				delete(ts.claims, ref)
				last = true
			}
		}
	}
	ts.mu.Unlock()
	if had {
		if st := ts.byID[tenant]; st != nil {
			st.storedBytes.Add(-bytes)
		}
	}
	return had, last
}

// owns reports whether tenant claims ref.
func (ts *tenantSet) owns(ref, tenant string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, ok := ts.claims[ref][tenant]
	return ok
}

// claimCount reports how many tenants claim ref (0: unreferenced,
// eligible for GC once unpinned).
func (ts *tenantSet) claimCount(ref string) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.claims[ref])
}

// TenantView is the per-tenant block of GET /stats.
type TenantView struct {
	ID                string         `json:"id"`
	Weight            int            `json:"weight"`
	RatePerSec        float64        `json:"rate_per_sec,omitempty"`
	StoredBytes       int64          `json:"stored_bytes"`
	MaxStoredBytes    int64          `json:"max_stored_bytes,omitempty"`
	JobsByState       map[Status]int `json:"jobs"`
	RateLimitedTotal  uint64         `json:"rate_limited_total"`
	QuotaRejectsTotal uint64         `json:"quota_rejects_total"`
	DispatchedTotal   uint64         `json:"dispatched_total"`
}

// views snapshots every tenant (sorted by ID) with its job-state counts.
func (ts *tenantSet) views(countsByTenant map[string]map[Status]int) []TenantView {
	out := make([]TenantView, 0, len(ts.ids))
	for _, id := range ts.ids {
		st := ts.byID[id]
		counts := countsByTenant[id]
		if counts == nil {
			counts = map[Status]int{}
		}
		out = append(out, TenantView{
			ID:                id,
			Weight:            st.weight(),
			RatePerSec:        st.cfg.RatePerSec,
			StoredBytes:       st.storedBytes.Load(),
			MaxStoredBytes:    st.cfg.MaxStoredBytes,
			JobsByState:       counts,
			RateLimitedTotal:  st.rateLimited.Load(),
			QuotaRejectsTotal: st.rejected.Load(),
			DispatchedTotal:   st.dispatched.Load(),
		})
	}
	return out
}

// ---- request plumbing ----

// tenantCtxKey carries the authenticated tenant ID through the request
// context ("" in single-tenant mode).
type tenantCtxKey struct{}

// reqTenant extracts the authenticated tenant ID ("" when auth is off).
func reqTenant(r *http.Request) string {
	id, _ := r.Context().Value(tenantCtxKey{}).(string)
	return id
}

// authGate resolves the request's tenant and rewrites the context. It
// reports whether the request was consumed (401 written). Handler skips
// it on open routes.
func (s *Server) authGate(w http.ResponseWriter, r *http.Request) (*http.Request, bool) {
	if s.tenants == nil {
		return r, false
	}
	st := s.tenants.authenticate(r)
	if st == nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="secreta"`)
		writeJSON(w, http.StatusUnauthorized, map[string]any{
			"error":  "missing or unknown API key (Authorization: Bearer <key> or X-API-Key)",
			"reason": "unauthorized",
		})
		return r, true
	}
	return r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, st.cfg.ID)), false
}

// rateGate runs the tenant's token bucket for one metered request and
// writes the X-RateLimit-* headers (on allow and deny alike). It reports
// whether the request was consumed (429 written). Single-tenant mode
// never gates.
func (s *Server) rateGate(w http.ResponseWriter, r *http.Request) bool {
	st := s.tenantState(r)
	if st == nil {
		return false
	}
	d := st.takeToken(s.tenants.now())
	if d.limited {
		w.Header().Set("X-RateLimit-Limit", strconv.Itoa(int(st.burst())))
		w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(d.remaining))
		w.Header().Set("X-RateLimit-Reset", strconv.FormatInt(d.reset, 10))
	}
	if d.ok {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(d.retryAfter))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":  fmt.Sprintf("tenant %q exceeded its request rate (%g/s)", st.cfg.ID, st.cfg.RatePerSec),
		"reason": "rate_limited",
	})
	return true
}

// tenantState resolves the request's tenant to its runtime state (nil in
// single-tenant mode).
func (s *Server) tenantState(r *http.Request) *tenantState {
	if s.tenants == nil {
		return nil
	}
	return s.tenants.byID[reqTenant(r)]
}

// journalClaim mirrors a claim to the journal when durable. Failures are
// storage faults like any journal append.
func (s *Server) journalClaim(ref, tenant string, bytes int64) {
	if s.st == nil {
		return
	}
	if err := s.st.Journal.ClaimDataset(ref, tenant, bytes); err != nil {
		s.log().Error("journaling dataset claim failed", "dataset", ref, "tenant", tenant, "err", err)
		s.storeFault("dataset claim journal", err)
	}
}

// journalRelease mirrors a claim release to the journal when durable.
func (s *Server) journalRelease(ref, tenant string) {
	if s.st == nil {
		return
	}
	if err := s.st.Journal.ReleaseDataset(ref, tenant); err != nil {
		s.log().Error("journaling dataset release failed", "dataset", ref, "tenant", tenant, "err", err)
		s.storeFault("dataset release journal", err)
	}
}

// quotaReject answers one machine-readable quota rejection.
func quotaReject(w http.ResponseWriter, code int, reason, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "reason": reason})
}
