package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics is the per-route HTTP metric pair the access-log
// middleware feeds: a request counter by route/method/code and a
// latency histogram by route.
type HTTPMetrics struct {
	Requests *CounterVec   // labels: route, method, code
	Duration *HistogramVec // labels: route
}

// NewHTTPMetrics builds and registers the HTTP metric families.
func NewHTTPMetrics(r *Registry, namePrefix string) *HTTPMetrics {
	m := &HTTPMetrics{
		//lint:ignore metricname namePrefix is the caller's constant ("pdfd"); MustRegister validates the joined name at registration
		Requests: NewCounterVec(namePrefix+"_http_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", "method", "code"),
		//lint:ignore metricname namePrefix is the caller's constant ("pdfd"); MustRegister validates the joined name at registration
		Duration: NewHistogramVec(namePrefix+"_http_request_duration_seconds",
			"HTTP request latency by route.", DefBuckets, "route"),
	}
	r.MustRegister(m.Requests, m.Duration)
	return m
}

// statusRecorder captures the response status for the access log:
// 200 until the handler writes another.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers behind the middleware can still Flush (the SSE endpoint) or
// set write deadlines.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Middleware wraps an HTTP handler with the observability trio:
//
//   - request-ID correlation: an incoming X-Request-ID is honored,
//     otherwise one is generated; it is placed in the request context
//     (RequestID) and echoed in the X-Request-ID response header;
//   - trace-context extraction: a well-formed incoming W3C
//     traceparent header is parsed into the context (TraceContextFrom)
//     so handlers can graft their spans under the caller's trace; a
//     malformed or absent header leaves the context bare — minting is
//     the edge's (the coordinator's) job, not every hop's;
//   - an access-log record per request (route, method, path, status,
//     duration, remote, request ID) on log;
//   - the HTTPMetrics counter and latency histogram, labeled with the
//     static route name (never the raw path, keeping cardinality
//     bounded).
//
// log and metrics may each be nil to disable that piece.
func Middleware(route string, log *slog.Logger, metrics *HTTPMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := WithRequestID(r.Context(), reqID)
		if tc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
			ctx = WithTraceContext(ctx, tc)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// Deferred: a handler that aborts (panic(http.ErrAbortHandler))
		// is still logged and counted, with the status it wrote.
		defer func() {
			elapsed := time.Since(start)
			if metrics != nil {
				metrics.Requests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
				metrics.Duration.With(route).Observe(elapsed.Seconds())
			}
			if log != nil {
				log.Info("http request",
					"route", route,
					"method", r.Method,
					"path", r.URL.Path,
					"status", rec.status,
					"duration_ms", float64(elapsed)/float64(time.Millisecond),
					"remote", r.RemoteAddr,
					"request_id", reqID,
				)
			}
		}()
		next.ServeHTTP(rec, r.WithContext(ctx))
	})
}
