// Package obs is the observability layer shared by the engine, the
// pdfd server and the CLI front-ends: structured logging on log/slog
// with request-ID and job-ID correlation, lightweight in-process
// tracing threaded through context.Context, and Prometheus text-format
// metric exposition — all stdlib-only.
//
// The three pieces compose but do not require each other:
//
//   - Logging: NewLogger builds a slog.Logger (text or JSON); request
//     IDs travel in the context (WithRequestID / RequestID) so every
//     layer can correlate its records with the HTTP request that
//     caused them.
//   - Tracing: a Trace is a bounded, concurrency-safe collection of
//     spans. StartSpan reads the trace and the parent span from the
//     context, so instrumented code (engine stages, the ATPG pipeline)
//     needs no plumbing beyond the ctx it already carries. Without a trace in the context, StartSpan is a
//     near-free no-op.
//   - Metrics: a Registry of counters, gauges and fixed-bucket
//     histograms that serializes itself in the Prometheus text format
//     (version 0.0.4) or OpenMetrics, served on /v1/metrics. Counters
//     and histograms are written as events happen; a gauge is always a
//     read of the state it reports (NewGaugeFunc, NewGaugeVecFunc), so
//     no gauge series outlives its state.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

type ctxKey int

const (
	requestIDKey ctxKey = iota
	traceKey
	spanKey
	traceCtxKey
)

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

var reqSeq atomic.Uint64

// NewRequestID returns a fresh request identifier: 6 random bytes in
// hex, with a process-local sequence fallback if the system source of
// randomness fails.
func NewRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// NewLogger builds a slog.Logger writing to w. Format is "text" or
// "json" (anything else falls back to text); level is one of "debug",
// "info", "warn", "error" (default info).
func NewLogger(w io.Writer, format, level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	if strings.ToLower(format) == "json" {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// discardHandler drops every record (slog.DiscardHandler needs Go
// 1.24; the module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// NopLogger returns a logger that discards everything; the engine's
// default when no logger is configured.
func NopLogger() *slog.Logger { return slog.New(discardHandler{}) }
