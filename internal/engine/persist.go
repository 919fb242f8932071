package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/timing"
)

// CacheBacking is the durable side of a disk-backed result cache
// (implemented by internal/store's CacheStore). SaveResult must be atomic
// and durable before returning; LoadResult answers (nil, nil) when the
// key has never been saved. The engine treats backing failures as cache
// misses — persistence must never fail a job.
type CacheBacking interface {
	SaveResult(key string, data []byte) error
	LoadResult(key string) ([]byte, error)
}

// SetBacking attaches a durable spill target: every successful result is
// written through on put, and a RAM miss consults the backing before
// computing. Keys are pure content (dataset fingerprint + config digest),
// so entries written before a restart are valid hits after it. Call
// before the cache serves traffic.
func (c *Cache) SetBacking(b CacheBacking) {
	c.mu.Lock()
	c.backing = b
	c.mu.Unlock()
}

// storedResult is the serialized form of a cached Result. Config is
// deliberately absent: a disk hit is keyed by the config's content
// digest, so the caller's live Config is — by construction — content-
// equal to the one that produced the entry, and is re-attached on decode.
// Err is likewise absent: only successful results are ever cached.
type storedResult struct {
	RuntimeNS  int64           `json:"runtime_ns"`
	Phases     []storedPhase   `json:"phases,omitempty"`
	Indicators Indicators      `json:"indicators"`
	Anonymized json.RawMessage `json:"anonymized,omitempty"`
}

type storedPhase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// encodeResult serializes a successful Result for the backing.
func encodeResult(r *Result) ([]byte, error) {
	out := storedResult{RuntimeNS: r.Runtime.Nanoseconds(), Indicators: r.Indicators}
	for _, p := range r.Phases {
		out.Phases = append(out.Phases, storedPhase{Name: p.Name, DurationNS: p.Duration.Nanoseconds()})
	}
	if anon := r.Anonymized(); anon != nil {
		var buf bytes.Buffer
		if err := anon.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("engine: encoding anonymized dataset: %w", err)
		}
		out.Anonymized = buf.Bytes()
	}
	return json.Marshal(out)
}

// decodeResult rebuilds a Result from the backing's bytes, attaching the
// caller's config (content-equal to the producer's, see storedResult).
func decodeResult(data []byte, cfg Config) (*Result, error) {
	var in storedResult
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("engine: decoding cached result: %w", err)
	}
	r := &Result{
		Config:     cfg,
		Runtime:    time.Duration(in.RuntimeNS),
		Indicators: in.Indicators,
	}
	for _, p := range in.Phases {
		r.Phases = append(r.Phases, timing.Phase{Name: p.Name, Duration: time.Duration(p.DurationNS)})
	}
	if len(in.Anonymized) > 0 {
		ds, err := dataset.ReadJSON(bytes.NewReader(in.Anonymized))
		if err != nil {
			return nil, fmt.Errorf("engine: decoding cached anonymized dataset: %w", err)
		}
		r.Records = dataset.Intern(ds)
	}
	return r, nil
}
