// Package obs is secreta-serve's job-lifecycle tracing subsystem: a
// lightweight, dependency-free span recorder that answers "what is job X
// doing right now and where did its time go". Each job owns one Trace — a
// bounded tree of spans (start/end, attributes, parent links) plus a
// ring-buffered event timeline — so per-job trace memory is O(1)
// regardless of how long the job runs or how chatty the algorithms are.
//
// The recorder is threaded through the engine alongside context
// cancellation: a Span travels in the context (With/FromCtx), layers
// start children on whatever span they find there, and algorithm hot
// loops append events (an Apriori repair round, a k^m support scan)
// without knowing who is listening. Every method is safe on the zero
// Span, so instrumented code needs no "is tracing on?" branches — CLI
// paths that never attach a trace pay a nil check and nothing else.
//
// A Trace can be snapshotted at any time (View), including mid-flight:
// open spans report their duration up to the snapshot and are marked
// open. Terminal jobs serialize the final snapshot to JSON and journal it
// beside the job record, so traces survive a restart.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Default per-trace bounds. Spans beyond MaxSpans are counted and
// dropped; events beyond MaxEvents overwrite the oldest (the timeline is
// a ring): recent activity is what an operator debugging a live job
// needs, and the drop counters make the truncation visible.
const (
	DefaultMaxSpans  = 256
	DefaultMaxEvents = 512
	// maxAttrsPerSpan bounds per-span annotation growth so a loop calling
	// SetAttr cannot grow a span without bound.
	maxAttrsPerSpan = 32
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// span is one recorded interval. Parent links are indices into the
// trace's span slice; the root is index 0 with parent -1.
type span struct {
	name   string
	parent int32
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
}

// event is one timeline entry, attributed to the span that recorded it.
type event struct {
	span  int32
	name  string
	at    time.Time
	attrs []Attr
}

// Trace records one job's lifecycle. Safe for concurrent use: the server
// annotates from handler goroutines while engine workers record phases.
type Trace struct {
	mu        sync.Mutex
	id        string
	start     time.Time
	end       time.Time // zero until Finish
	maxSpans  int
	maxEvents int
	spans     []span
	events    []event // ring once len == maxEvents
	evNext    int     // ring write position (valid once full)
	evTotal   uint64  // events ever recorded
	dropped   uint64  // spans dropped at the cap
}

// New builds a trace for the given job ID with the default bounds and
// opens its root span (named "job").
func New(id string) *Trace { return NewSized(id, DefaultMaxSpans, DefaultMaxEvents) }

// NewSized is New with explicit span/event bounds (values < 2 are raised
// to 2 so the root span and at least one child always fit).
func NewSized(id string, maxSpans, maxEvents int) *Trace {
	if maxSpans < 2 {
		maxSpans = 2
	}
	if maxEvents < 2 {
		maxEvents = 2
	}
	t := &Trace{
		id:        id,
		start:     time.Now(),
		maxSpans:  maxSpans,
		maxEvents: maxEvents,
	}
	t.spans = append(t.spans, span{name: "job", parent: -1, start: t.start})
	return t
}

// ID returns the job ID the trace belongs to ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span handle (the zero no-op Span on a nil trace,
// so callers holding an optional *Trace need no guards).
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, idx: 0}
}

// Finish closes the trace: the root span and every still-open span end
// now. Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.end.IsZero() {
		return
	}
	t.end = now
	for i := range t.spans {
		if t.spans[i].end.IsZero() {
			t.spans[i].end = now
		}
	}
}

// Span is a handle onto one span of a trace. The zero Span is a valid
// no-op recorder: every method is safe to call and does nothing, so
// instrumented code paths need no tracing-enabled checks. A Span whose
// trace hit its span cap ("dropped" handle, idx < 0) likewise records
// nothing but still counts the drops.
type Span struct {
	t   *Trace
	idx int32
}

// TraceID returns the owning trace's job ID ("" on the zero Span).
func (s Span) TraceID() string {
	if s.t == nil {
		return ""
	}
	return s.t.id
}

// Start opens a child span. On the zero Span it returns another zero
// Span; past the trace's span cap it counts a drop and returns a
// non-recording handle (whose own children are also counted as drops).
func (s Span) Start(name string, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans || s.idx < 0 {
		t.dropped++
		return Span{t: t, idx: -1}
	}
	t.spans = append(t.spans, span{name: name, parent: s.idx, start: now, attrs: clampAttrs(attrs)})
	return Span{t: t, idx: int32(len(t.spans) - 1)}
}

// Interval records an already-measured child span with explicit start and
// end times — how stopwatch-timed algorithm phases become spans after the
// fact, without re-timing the algorithm.
func (s Span) Interval(name string, start, end time.Time, attrs ...Attr) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans || s.idx < 0 {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name: name, parent: s.idx, start: start, end: end, attrs: clampAttrs(attrs)})
}

// StartTime returns when the span opened: the zero time on the zero and
// dropped Span.
func (s Span) StartTime() time.Time {
	if s.t == nil || s.idx < 0 {
		return time.Time{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.spans[s.idx].start
}

// End closes the span (idempotent; no-op on the zero and dropped Span).
func (s Span) End() {
	if s.t == nil || s.idx < 0 {
		return
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := &t.spans[s.idx]; sp.end.IsZero() {
		sp.end = now
	}
}

// SetAttr annotates the span (bounded by maxAttrsPerSpan; extra
// annotations are dropped).
func (s Span) SetAttr(key, value string) {
	if s.t == nil || s.idx < 0 {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[s.idx]
	if len(sp.attrs) < maxAttrsPerSpan {
		sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	}
}

// Event appends to the trace's ring-buffered timeline, attributed to this
// span (to the root for a dropped span handle). O(1): past the event cap
// the oldest entry is overwritten.
func (s Span) Event(name string, attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := time.Now()
	idx := s.idx
	if idx < 0 {
		idx = 0
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := event{span: idx, name: name, at: now, attrs: clampAttrs(attrs)}
	t.evTotal++
	if len(t.events) < t.maxEvents {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.evNext] = ev
	t.evNext = (t.evNext + 1) % t.maxEvents
}

func clampAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	if len(attrs) > maxAttrsPerSpan {
		attrs = attrs[:maxAttrsPerSpan]
	}
	return append([]Attr(nil), attrs...)
}

// ---- context plumbing ----

type ctxKey struct{}

// With returns a context carrying the span; layers below start children
// on whatever span they find with FromCtx.
func With(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromCtx extracts the span from the context. A nil or untraced context
// yields the zero (no-op) Span.
func FromCtx(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	if s, ok := ctx.Value(ctxKey{}).(Span); ok {
		return s
	}
	return Span{}
}
