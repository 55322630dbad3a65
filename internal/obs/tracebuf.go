package obs

import (
	"errors"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tail-based trace retention: every finished trace is *offered* to a
// TraceBuffer, which decides at completion time — when the outcome and
// duration are known — whether it is worth keeping. Error traces are
// always kept, the slowest-percentile traces are always kept, and the
// rest are kept only if the head sampling decision (the traceparent
// sampled flag) said so. The buffer is a byte- and count-capped ring;
// when full, the least interesting retained traces (head-sampled
// before slow before error, oldest first within a class) are evicted.

// Buffer defaults: sized so a busy node keeps minutes of interesting
// traces without the buffer ever mattering for memory.
const (
	DefaultTraceBufferCount = 256
	DefaultTraceBufferBytes = 8 << 20

	// slowPercentile is the latency quantile above which an ok trace
	// is retained regardless of sampling; slowWindow is how many
	// recent durations the quantile is estimated over, and
	// slowMinSamples gates the rule until the estimate means
	// something.
	slowPercentile = 0.90
	slowWindow     = 512
	slowMinSamples = 20
)

// Retention reasons, exposed in list output so operators can tell why
// a trace survived.
const (
	RetainError   = "error"
	RetainSlow    = "slow"
	RetainSampled = "sampled"
)

// RetainedTrace is one kept trace plus the completion facts the
// retention decision was made on.
type RetainedTrace struct {
	TraceID      string     `json:"trace_id"`
	Name         string     `json:"name"`
	JobID        string     `json:"job_id,omitempty"`
	Node         string     `json:"node,omitempty"`
	Outcome      string     `json:"outcome"` // "ok", "error" or "canceled"
	Error        string     `json:"error,omitempty"`
	DurationMS   float64    `json:"duration_ms"`
	OriginUnixMS int64      `json:"origin_unix_ms,omitempty"`
	Retained     string     `json:"retained,omitempty"` // RetainError | RetainSlow | RetainSampled
	SpanCount    int        `json:"span_count"`
	Trace        *TraceView `json:"trace,omitempty"` // nil in list summaries

	size int64
}

// approxSize estimates the entry's memory footprint for the byte cap;
// exactness does not matter, only that big traces count as big.
func (rt *RetainedTrace) approxSize() int64 {
	n := 256 + len(rt.TraceID) + len(rt.Name) + len(rt.JobID) + len(rt.Error)
	if rt.Trace != nil {
		for i := range rt.Trace.Spans {
			s := &rt.Trace.Spans[i]
			n += 96 + len(s.Name)
			for k, v := range s.Attrs {
				n += 32 + len(k) + len(v)
			}
		}
	}
	return int64(n)
}

// TraceBuffer is the bounded in-memory tail-retention store. Safe for
// concurrent use.
type TraceBuffer struct {
	mu       sync.Mutex
	maxCount int
	maxBytes int64
	bytes    int64
	entries  []*RetainedTrace // insertion (≈ completion-time) order
	byID     map[string]*RetainedTrace
	evicted  uint64
	offered  uint64
	retained uint64

	// Sliding window of recent completion durations (ms), for the
	// slow-percentile rule.
	durs    []float64
	durNext int
}

// NewTraceBuffer builds a buffer capped at maxCount traces and
// maxBytes of (approximate) retained payload. The engine and the
// coordinator pass DefaultTraceBufferCount and DefaultTraceBufferBytes.
func NewTraceBuffer(maxCount int, maxBytes int64) *TraceBuffer {
	return &TraceBuffer{
		maxCount: maxCount,
		maxBytes: maxBytes,
		byID:     make(map[string]*RetainedTrace),
	}
}

// Offer submits a finished trace for retention and returns the reason
// it was kept ("" if it was not). rt.Outcome is "ok", "error" or
// "canceled"; every outcome but "ok" is retained under RetainError.
// sampled is the head-sampling decision carried by the trace.
func (b *TraceBuffer) Offer(rt RetainedTrace, sampled bool) string {
	if b == nil || rt.TraceID == "" {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.offered++

	slowCut, haveCut := b.slowThresholdLocked()
	b.pushDurationLocked(rt.DurationMS)

	switch {
	case rt.Outcome != "ok":
		rt.Retained = RetainError
	case haveCut && rt.DurationMS >= slowCut:
		rt.Retained = RetainSlow
	case sampled:
		rt.Retained = RetainSampled
	default:
		return ""
	}
	if rt.Trace != nil {
		rt.SpanCount = len(rt.Trace.Spans)
	}
	rt.size = rt.approxSize()

	// Same trace ID offered twice (a retried submission): keep the
	// newer completion.
	if old := b.byID[rt.TraceID]; old != nil {
		b.removeLocked(old)
	}
	e := &rt
	b.entries = append(b.entries, e)
	b.byID[rt.TraceID] = e
	b.bytes += rt.size
	b.retained++
	b.evictLocked()
	return rt.Retained
}

// evictLocked enforces the caps: head-sampled traces go first, then
// slow, then error — oldest first within each class.
func (b *TraceBuffer) evictLocked() {
	for _, class := range []string{RetainSampled, RetainSlow, RetainError} {
		for b.overLocked() {
			victim := b.oldestLocked(class)
			if victim == nil {
				break
			}
			b.removeLocked(victim)
			b.evicted++
		}
	}
}

func (b *TraceBuffer) overLocked() bool {
	return len(b.entries) > b.maxCount || b.bytes > b.maxBytes
}

func (b *TraceBuffer) oldestLocked(class string) *RetainedTrace {
	for _, e := range b.entries {
		if e.Retained == class {
			return e
		}
	}
	return nil
}

func (b *TraceBuffer) removeLocked(e *RetainedTrace) {
	for i, x := range b.entries {
		if x == e {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			break
		}
	}
	delete(b.byID, e.TraceID)
	b.bytes -= e.size
}

func (b *TraceBuffer) pushDurationLocked(ms float64) {
	if len(b.durs) < slowWindow {
		b.durs = append(b.durs, ms)
		return
	}
	b.durs[b.durNext] = ms
	b.durNext = (b.durNext + 1) % slowWindow
}

// slowThresholdLocked estimates the slow-percentile latency cutoff
// from the recent-duration window; ok is false until the window has
// enough samples to mean anything.
func (b *TraceBuffer) slowThresholdLocked() (cut float64, ok bool) {
	if len(b.durs) < slowMinSamples {
		return 0, false
	}
	tmp := make([]float64, len(b.durs))
	copy(tmp, b.durs)
	sort.Float64s(tmp)
	idx := int(slowPercentile * float64(len(tmp)))
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx], true
}

// Get returns the retained trace with the given ID, spans included.
func (b *TraceBuffer) Get(traceID string) (RetainedTrace, bool) {
	if b == nil {
		return RetainedTrace{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.byID[traceID]
	if e == nil {
		return RetainedTrace{}, false
	}
	return *e, true
}

// ListFilter narrows List output; zero values match everything.
type ListFilter struct {
	MinDuration time.Duration
	Outcome     string // "", "ok", "error" or "canceled"
	Limit       int    // <= 0 means 50
}

// ParseListFilter reads a ListFilter from the ?min_duration=
// ?outcome= ?limit= query parameters of GET /v1/traces. The error
// message names the offending parameter and value.
func ParseListFilter(qs url.Values) (ListFilter, error) {
	var f ListFilter
	if v := qs.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return f, errors.New("bad min_duration " + strconv.Quote(v))
		}
		f.MinDuration = d
	}
	if v := qs.Get("outcome"); v != "" {
		switch v {
		case "ok", "error", "canceled":
			f.Outcome = v
		default:
			return f, errors.New("unknown outcome " + strconv.Quote(v))
		}
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return f, errors.New("bad limit " + strconv.Quote(v))
		}
		f.Limit = n
	}
	return f, nil
}

// List returns summaries (spans elided) of retained traces matching
// the filter, newest completion first.
func (b *TraceBuffer) List(f ListFilter) []RetainedTrace {
	if b == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 50
	}
	minMS := float64(f.MinDuration) / float64(time.Millisecond)
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RetainedTrace, 0, min(limit, len(b.entries)))
	for i := len(b.entries) - 1; i >= 0 && len(out) < limit; i-- {
		e := b.entries[i]
		if e.DurationMS < minMS {
			continue
		}
		if f.Outcome != "" && e.Outcome != f.Outcome {
			continue
		}
		s := *e
		s.Trace = nil // summary: identity and facts, no spans
		out = append(out, s)
	}
	return out
}

// TraceBufferStats is the buffer's own accounting, for metrics.
type TraceBufferStats struct {
	Retained int
	Bytes    int64
	Offered  uint64
	Kept     uint64
	Evicted  uint64
}

// Stats snapshots the buffer counters.
func (b *TraceBuffer) Stats() TraceBufferStats {
	if b == nil {
		return TraceBufferStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return TraceBufferStats{
		Retained: len(b.entries),
		Bytes:    b.bytes,
		Offered:  b.offered,
		Kept:     b.retained,
		Evicted:  b.evicted,
	}
}
