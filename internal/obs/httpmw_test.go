package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRequestIDAndMetrics(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "t")
	var logBuf bytes.Buffer
	log := NewLogger(&logBuf, "text", "info")

	var seenID string
	h := Middleware("jobs.get", log, hm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = RequestID(r.Context())
		w.WriteHeader(http.StatusNotFound)
	}))

	// Generated request ID: echoed in the header, placed in the ctx,
	// present in the access log.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/j1", nil))
	if seenID == "" {
		t.Fatal("no request ID in handler context")
	}
	if got := rec.Header().Get("X-Request-ID"); got != seenID {
		t.Errorf("response X-Request-ID %q != ctx %q", got, seenID)
	}
	if !strings.Contains(logBuf.String(), "request_id="+seenID) {
		t.Errorf("access log missing request_id:\n%s", logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "status=404") {
		t.Errorf("access log missing status:\n%s", logBuf.String())
	}

	// Caller-supplied ID is honored.
	req := httptest.NewRequest("GET", "/jobs/j2", nil)
	req.Header.Set("X-Request-ID", "caller-42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seenID != "caller-42" {
		t.Errorf("caller request ID not honored: %q", seenID)
	}

	// Metrics: two 404s on the route, latency observed.
	if v := hm.Requests.With("jobs.get", "GET", "404").Value(); v != 2 {
		t.Errorf("requests_total = %d, want 2", v)
	}
	if c := hm.Duration.With("jobs.get").Count(); c != 2 {
		t.Errorf("duration count = %d, want 2", c)
	}
}

func TestMiddlewareImplicit200(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "t2")
	h := Middleware("ok", nil, hm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi")) // no explicit WriteHeader
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if v := hm.Requests.With("ok", "GET", "200").Value(); v != 1 {
		t.Errorf("implicit 200 not counted: %d", v)
	}
}

// A handler that aborts its connection after writing its status is
// still logged and counted with that status; the abort goes on.
func TestMiddlewareRecordsAbortedRequest(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "t3")
	var logBuf bytes.Buffer
	h := Middleware("jobs.events", NewLogger(&logBuf, "text", "info"), hm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler to pass through", p)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}()
	if v := hm.Requests.With("jobs.events", "GET", "200").Value(); v != 1 {
		t.Errorf("aborted request counted %d times, want 1", v)
	}
	if !strings.Contains(logBuf.String(), "status=200") {
		t.Errorf("aborted request not in the access log:\n%s", logBuf.String())
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var b bytes.Buffer
	log := NewLogger(&b, "json", "warn")
	log.Info("dropped")
	log.Warn("kept")
	out := b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Errorf("level filtering wrong:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"kept"`) {
		t.Errorf("not JSON format:\n%s", out)
	}
}
