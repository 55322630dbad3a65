package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// DefaultSpanLimit bounds a trace's span count when NewTrace is given
// no explicit limit: big enough for every stage of a realistic job
// (per-test compaction spans included), small enough that a job list
// of traced jobs stays cheap to snapshot.
const DefaultSpanLimit = 512

// Attr is one span attribute. Values are stringified at construction
// so snapshots need no reflection.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: fmt.Sprintf("%t", v)} }

// Trace is a bounded in-process span collection for one unit of work
// (the engine creates one per job). All methods are safe for
// concurrent use.
type Trace struct {
	mu      sync.Mutex
	origin  time.Time
	limit   int
	nextID  int
	spans   []*Span
	dropped int

	// Distributed identity: tc.TraceID names the whole cross-node
	// trace, tc.SpanID this trace's own hop; parentSpanID is the
	// caller's span when the trace was adopted from a remote
	// traceparent (empty at a trace root).
	tc           TraceContext
	parentSpanID string
}

// NewTrace starts an empty trace whose span offsets are measured from
// now, under a freshly minted (sampled) trace identity. limit <= 0
// uses DefaultSpanLimit; past the limit StartSpan stops recording and
// counts the drops instead.
func NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Trace{origin: time.Now(), limit: limit, tc: NewTraceContext(true)}
}

// Adopt grafts the trace under a remote caller's identity: it takes
// the caller's trace ID and sampling decision, records the caller's
// span as the parent, and keeps its own span ID for onward hops. A
// no-op for an invalid remote context.
func (t *Trace) Adopt(remote TraceContext) {
	if t == nil || !remote.Valid() {
		return
	}
	t.mu.Lock()
	t.tc.TraceID = remote.TraceID
	t.tc.Sampled = remote.Sampled
	t.parentSpanID = remote.SpanID
	t.mu.Unlock()
}

// Context returns the trace's own identity — what the next outbound
// hop should carry as its traceparent parent.
func (t *Trace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tc
}

// ID returns the W3C trace ID (32 hex chars), or "" on a nil trace.
func (t *Trace) ID() string { return t.Context().TraceID }

// Span is one timed operation inside a trace. A nil *Span is a valid
// no-op receiver, so instrumented code never branches on whether
// tracing is enabled.
type Span struct {
	t      *Trace
	id     int
	parent int
	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
}

// NewContext returns a context carrying the trace; spans started from
// it (and its descendants) are recorded there.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// Transplant copies the correlation values of src — trace, current
// span, request ID — onto dst, which keeps its own cancellation and
// deadline. The engine uses it to attach a job's trace (rooted at
// submit time) to the run context derived from the engine lifetime.
func Transplant(dst, src context.Context) context.Context {
	if src == nil {
		return dst
	}
	if t := FromContext(src); t != nil {
		dst = context.WithValue(dst, traceKey, t)
	}
	if id, ok := src.Value(spanKey).(int); ok {
		dst = context.WithValue(dst, spanKey, id)
	}
	if id := RequestID(src); id != "" {
		dst = WithRequestID(dst, id)
	}
	if tc, ok := TraceContextFrom(src); ok {
		dst = WithTraceContext(dst, tc)
	}
	return dst
}

// StartSpan opens a span named name under the span already in ctx (or
// at the root) and returns a context that makes it the parent of
// subsequent spans. Without a trace in ctx — or with the trace at its
// span limit — it returns ctx unchanged and a nil span; both the nil
// span and its would-be children degrade gracefully.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return StartSpanAt(ctx, name, time.Now(), attrs...)
}

// StartSpanAt is StartSpan with the caller's start time, for callers
// that time the same interval for a metric and want both to read one
// clock (see Span.EndAt).
func StartSpanAt(ctx context.Context, name string, start time.Time, attrs ...Attr) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(int)
	s := t.start(name, parent, start, attrs)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey, s.id), s
}

func (t *Trace) start(name string, parent int, start time.Time, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{
		t:      t,
		id:     t.nextID,
		parent: parent,
		name:   name,
		start:  start,
		attrs:  attrs,
	}
	t.spans = append(t.spans, s)
	return s
}

// End closes the span, optionally attaching final attributes (e.g.
// counts only known on completion). Ending twice keeps the first end
// time; a nil receiver is a no-op.
func (s *Span) End(attrs ...Attr) { s.EndAt(time.Now(), attrs...) }

// EndAt is End with the caller's end time. Nil-safe.
func (s *Span) EndAt(end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = end
	}
	s.attrs = append(s.attrs, attrs...)
	s.t.mu.Unlock()
}

// SpanView is the serializable snapshot of one span. Times are
// milliseconds relative to the trace origin; DurMS is -1 while the
// span is still open.
type SpanView struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"`
	DurMS   float64           `json:"dur_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceView is the serializable snapshot of a whole trace, in span
// start order (parents always precede their children). TraceID /
// ParentSpanID / Sampled carry the W3C identity; OriginUnixMS anchors
// the relative span offsets to this node's wall clock so traces from
// different nodes can be merged (after skew correction).
type TraceView struct {
	TraceID      string     `json:"trace_id,omitempty"`
	SpanID       string     `json:"span_id,omitempty"`
	ParentSpanID string     `json:"parent_span_id,omitempty"`
	Sampled      bool       `json:"sampled,omitempty"`
	OriginUnixMS int64      `json:"origin_unix_ms,omitempty"`
	Spans        []SpanView `json:"spans"`
	Dropped      int        `json:"dropped,omitempty"`
}

// Snapshot returns a consistent copy of the trace, safe to marshal
// while spans are still being recorded.
func (t *Trace) Snapshot() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		TraceID:      t.tc.TraceID,
		SpanID:       t.tc.SpanID,
		ParentSpanID: t.parentSpanID,
		Sampled:      t.tc.Sampled,
		OriginUnixMS: t.origin.UnixMilli(),
		Spans:        make([]SpanView, len(t.spans)),
		Dropped:      t.dropped,
	}
	for i, s := range t.spans {
		sv := SpanView{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartMS: float64(s.start.Sub(t.origin)) / float64(time.Millisecond),
			DurMS:   -1,
		}
		if !s.end.IsZero() {
			sv.DurMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
		}
		if len(s.attrs) > 0 {
			sv.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				sv.Attrs[a.Key] = a.Value
			}
		}
		v.Spans[i] = sv
	}
	return v
}
