package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
)

// fakeBackend is a pdfd stand-in: healthy on /v1/healthz, and every
// other request answered by reply under a fixed X-Request-ID.
func fakeBackend(t *testing.T, reply http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			engine.WriteJSON(w, http.StatusOK, engine.Health{Status: "ok"})
			return
		}
		w.Header().Set("X-Request-ID", "backend-req")
		reply(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// coordinatorOver runs a coordinator over one backend "b0" at url,
// with cfg's other fields, and returns it with its HTTP server.
func coordinatorOver(t *testing.T, url string, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Backends = []BackendConf{{Name: "b0", URL: url}}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c))
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

type reply struct {
	status     int
	body       []byte
	retryAfter string
	backendID  string
}

func call(t *testing.T, method, url string, body []byte) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, raw, resp.Header.Get("Retry-After"), resp.Header.Get("X-Pdfd-Backend-Request-ID")}
}

// proxiedRoutes are the coordinator routes that answer with a backend's
// reply, as (method, path, body).
var proxiedRoutes = []struct {
	method, path string
	body         []byte
}{
	{http.MethodPost, "/v1/jobs", []byte(`{"kind":"enrich","circuit":"s27","np0":10,"seed":1}`)},
	{http.MethodGet, "/v1/jobs/b0/j1", nil},
	{http.MethodGet, "/v1/jobs/b0/j1?wait=1s", nil},
	{http.MethodDelete, "/v1/jobs/b0/j1", nil},
	{http.MethodGet, "/v1/jobs/b0/j1/trace", nil},
	{http.MethodGet, "/v1/jobs/b0/j1/events", nil},
}

// batchError submits the spec of proxiedRoutes[0] as a one-job batch
// and returns the rejected item's error.
func batchError(t *testing.T, base string) *engine.APIError {
	t.Helper()
	body, _ := json.Marshal(BatchRequest{Jobs: []json.RawMessage{proxiedRoutes[0].body}})
	got := call(t, http.MethodPost, base+"/v1/jobs:batch", body)
	var br BatchResponse
	if got.status != http.StatusOK || json.Unmarshal(got.body, &br) != nil || len(br.Results) != 1 {
		t.Fatalf("batch = %d %s", got.status, got.body)
	}
	if it := br.Results[0]; it.Status != "rejected" || it.Error == nil {
		t.Fatalf("batch item = %+v, want rejected with an error", it)
	}
	return br.Results[0].Error
}

// Every route that reaches a backend answers the backend's error
// envelope as the backend wrote it: same status, the same body bytes,
// the same Retry-After, and the backend's request ID echoed. The batch
// item carries the same code, message and retry hint.
func TestClusterBackendEnvelopesPassThrough(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
		retry  time.Duration
	}{
		{http.StatusBadRequest, engine.CodeInvalidSpec, 0},
		{http.StatusUnauthorized, engine.CodeUnauthorized, 0},
		{http.StatusNotFound, engine.CodeNotFound, 0},
		{http.StatusTooManyRequests, engine.CodeQuotaExceeded, time.Second},
		{http.StatusServiceUnavailable, engine.CodeOverloaded, time.Second},
		{http.StatusServiceUnavailable, engine.CodeEngineClosed, 0},
	} {
		t.Run(tc.code, func(t *testing.T) {
			msg := tc.code + ` from <b0> & "friends"`
			bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
				engine.WriteError(w, tc.status, tc.code, msg, tc.retry)
			})
			// One backend: a 503 has no spill target.
			_, srv := coordinatorOver(t, bsrv.URL, Config{})
			want := call(t, http.MethodGet, bsrv.URL+"/v1/jobs/j1", nil)
			if want.status != tc.status {
				t.Fatalf("fake backend answered %d, want %d", want.status, tc.status)
			}
			for _, rt := range proxiedRoutes {
				got := call(t, rt.method, srv.URL+rt.path, rt.body)
				if got.status != want.status || !bytes.Equal(got.body, want.body) || got.retryAfter != want.retryAfter {
					t.Errorf("%s %s = %d Retry-After %q\n%s\nwant %d Retry-After %q\n%s",
						rt.method, rt.path, got.status, got.retryAfter, got.body, want.status, want.retryAfter, want.body)
				}
				if got.backendID != "backend-req" {
					t.Errorf("%s %s echoed backend request ID %q", rt.method, rt.path, got.backendID)
				}
			}
			var env struct {
				Error engine.APIError `json:"error"`
			}
			if err := json.Unmarshal(want.body, &env); err != nil {
				t.Fatal(err)
			}
			if got := batchError(t, srv.URL); *got != env.Error {
				t.Errorf("batch item error = %+v, want %+v", *got, env.Error)
			}
		})
	}
}

// A backend reply that is not an envelope is backend_down with the
// backend's status, on every route, naming the backend and the status.
func TestClusterUnreadableBackendError(t *testing.T) {
	bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	_, srv := coordinatorOver(t, bsrv.URL, Config{})
	msg := "backend b0: returned an unreadable error (status 500)"
	rec := httptest.NewRecorder()
	engine.WriteError(rec, http.StatusInternalServerError, CodeBackendDown, msg, 0)
	for _, rt := range proxiedRoutes {
		got := call(t, rt.method, srv.URL+rt.path, rt.body)
		if got.status != http.StatusInternalServerError || !bytes.Equal(got.body, rec.Body.Bytes()) || got.retryAfter != "" {
			t.Errorf("%s %s = %d Retry-After %q\n%s\nwant 500\n%s", rt.method, rt.path, got.status, got.retryAfter, got.body, rec.Body.Bytes())
		}
	}
	if got := batchError(t, srv.URL); got.Code != CodeBackendDown || got.Message != msg || got.RetryAfterMS != 0 {
		t.Errorf("batch item error = %+v, want backend_down %q", *got, msg)
	}
}

// A long-poll through the coordinator is capped below the per-request
// timeout: it answers the running job's view instead of timing out, and
// repeating it counts nothing against the backend.
func TestClusterLongPollCappedByRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	e := engine.New(engine.Config{Workers: 1, Injector: engine.InjectorFunc(func(ctx context.Context, stage engine.Stage, id string) error {
		if stage != engine.StagePrepare {
			return nil
		}
		select { // hold the job mid-run
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})})
	bsrv := httptest.NewServer(engine.NewServer(e))
	defer func() {
		bsrv.Close()
		e.Close()
	}()
	defer close(release)
	c, srv := coordinatorOver(t, bsrv.URL, Config{RequestTimeout: 400 * time.Millisecond})

	v, _ := submitVia(t, srv.URL, engine.Spec{Kind: engine.KindGenerate, Circuit: "s27", NP: 8, Seed: 1})
	for i := 0; i < 4; i++ {
		got := call(t, http.MethodGet, srv.URL+"/v1/jobs/"+v.ID+"?wait=30s", nil)
		var view engine.JobView
		if got.status != http.StatusOK || json.Unmarshal(got.body, &view) != nil {
			t.Fatalf("long-poll %d = %d: %s", i, got.status, got.body)
		}
		if view.ID != v.ID || view.Status.Terminal() {
			t.Fatalf("long-poll %d answered %s in %s, want the held job still running", i, view.ID, view.Status)
		}
	}
	if b, _ := c.backendFor("b0"); b.State() != StateHealthy || b.reqFails.Load() != 0 {
		t.Fatalf("long-polls left the backend %s with %d request failures", b.State(), b.reqFails.Load())
	}
}

// A backend reply longer than durable.MaxPayload never reaches the
// client whole. One that declares its length answers 502 backend_down
// naming the bound before a byte is written. A chunked one is streamed
// up to the bound and then cut: the client's connection is aborted, the
// backend is charged one failure, and the coordinator's heap does not
// grow with the reply.
func TestClusterOverlongReplyNamesBound(t *testing.T) {
	// overlong writes MaxPayload+1 bytes in 64 KiB chunks.
	overlong := func(w http.ResponseWriter) {
		chunk := bytes.Repeat([]byte(" "), 1<<16)
		for n := 0; n < durable.MaxPayload; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		w.Write([]byte(" "))
	}
	t.Run("declared", func(t *testing.T) {
		bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(durable.MaxPayload+1))
			overlong(w)
		})
		_, srv := coordinatorOver(t, bsrv.URL, Config{})
		got := call(t, http.MethodGet, srv.URL+"/v1/jobs/b0/j1", nil)
		var env struct {
			Error engine.APIError `json:"error"`
		}
		if got.status != http.StatusBadGateway || json.Unmarshal(got.body, &env) != nil || env.Error.Code != CodeBackendDown {
			t.Fatalf("over-long reply = %d: %s, want 502 backend_down", got.status, got.body)
		}
		if !strings.Contains(env.Error.Message, strconv.Itoa(durable.MaxPayload)) {
			t.Fatalf("message %q does not name the %d-byte bound", env.Error.Message, durable.MaxPayload)
		}
	})
	t.Run("chunked", func(t *testing.T) {
		bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			http.NewResponseController(w).Flush() // no declared length
			overlong(w)
		})
		c, srv := coordinatorOver(t, bsrv.URL, Config{HealthInterval: time.Hour})
		var resp *http.Response
		var n int64
		var err error
		grew := heapGrowth(func() {
			if resp, err = http.Get(srv.URL + "/v1/jobs/b0/j1"); err == nil {
				n, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		if resp == nil {
			t.Fatal(err)
		}
		if grew >= 16<<20 {
			t.Errorf("heap in use grew by %d bytes during the transfer, want under 16 MiB", grew)
		}
		if resp.StatusCode != http.StatusOK || err == nil || n > durable.MaxPayload {
			t.Fatalf("over-long chunked reply = %d, %d bytes, read error %v; want 200, at most %d bytes, then an aborted connection",
				resp.StatusCode, n, err, durable.MaxPayload)
		}
		if got := sample(t, c, `pdfd_cluster_backend_errors_total{backend="b0"}`); got != "1" {
			t.Errorf("backend errors = %s, want 1", got)
		}
	})
}

// heapGrowth runs fn and returns how far the heap in use rose above
// its level before fn, sampled every 2 ms.
func heapGrowth(fn func()) int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapInuse
	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peak.Load() {
				peak.Store(ms.HeapInuse)
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	fn()
	close(stop)
	<-sampled
	return int64(peak.Load()) - int64(base)
}

// An SSE connect to a backend that never sends its headers answers
// 502 backend_down within RequestTimeout, charged to the backend.
func TestClusterSSEConnectDeadline(t *testing.T) {
	bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	const timeout = 200 * time.Millisecond
	c, srv := coordinatorOver(t, bsrv.URL, Config{RequestTimeout: timeout, HealthInterval: time.Hour})
	client := &http.Client{Timeout: 10 * time.Second}
	start := time.Now()
	resp, err := client.Get(srv.URL + "/v1/jobs/b0/j1/events")
	if err != nil {
		t.Fatalf("SSE connect to a silent backend: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(body, &env) != nil || env.Error.Code != CodeBackendDown {
		t.Fatalf("SSE connect to a silent backend = %d: %s, want 502 backend_down", resp.StatusCode, body)
	}
	if elapsed > timeout+time.Second {
		t.Errorf("answered after %v, want about the %v request timeout", elapsed, timeout)
	}
	if b, _ := c.backendFor("b0"); b.reqFails.Load() != 1 {
		t.Errorf("missed deadline left %d request failures, want 1", b.reqFails.Load())
	}
}

// An SSE connect that cannot reach its backend counts against the
// backend like any other proxied request: the error counter rises and
// the backend goes down.
func TestClusterSSEProxyFailureCounts(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, srv := coordinatorOver(t, dead.URL, Config{HealthInterval: time.Hour})
	for i := 0; i < 3; i++ {
		if got := call(t, http.MethodGet, srv.URL+"/v1/jobs/b0/j1/events", nil); got.status != http.StatusBadGateway {
			t.Fatalf("SSE connect to a dead backend = %d: %s", got.status, got.body)
		}
	}
	if b, _ := c.backendFor("b0"); b.State() != StateDown {
		t.Fatalf("state after 3 failed SSE connects = %s, want down", b.State())
	}
	metrics := call(t, http.MethodGet, srv.URL+"/v1/metrics", nil)
	if want := `pdfd_cluster_backend_errors_total{backend="b0"} 3`; !strings.Contains(string(metrics.body), want) {
		t.Fatalf("exposition lacks %s", want)
	}
}

// A request whose caller went away is not the backend's failure.
func TestClusterCallerCancelNotCounted(t *testing.T) {
	c, _, _ := newFleet(t, 1)
	b, _ := c.backendFor("b0")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, _, _, err := c.do(ctx, b, http.MethodGet, "/v1/healthz", "healthz", nil, nil); err == nil {
			t.Fatal("request on a canceled context succeeded")
		}
	}
	if b.State() != StateHealthy || b.reqFails.Load() != 0 {
		t.Fatalf("canceled callers left the backend %s with %d request failures", b.State(), b.reqFails.Load())
	}
}

// A backend that answers headers and then breaks mid-body fails every
// read: the client's read fails rather than ending early and cleanly,
// and 3 cut replies mark the backend down. Its probes are cut the same
// way, so no successful probe can bring it back meanwhile.
func TestClusterMidBodyFailureMarksDown(t *testing.T) {
	bsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1024")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"id":`))
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler) // drop the connection short of the body
	}))
	t.Cleanup(bsrv.Close)
	c, srv := coordinatorOver(t, bsrv.URL, Config{HealthInterval: time.Hour})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/jobs/b0/j1")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				t.Fatalf("read cut mid-body = %d: %q read as complete", resp.StatusCode, body)
			}
		}
	}
	if b, _ := c.backendFor("b0"); b.State() != StateDown {
		t.Fatalf("state after 3 replies cut mid-body = %s, want down", b.State())
	}
}

// Failed proxied requests mark a backend down without waiting for a
// probe: with probes an hour apart, 3 failed reads take it down, which
// shows in the health transitions and backend_up, and new submissions
// find no backend.
func TestClusterRequestFailuresMarkDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, srv := coordinatorOver(t, dead.URL, Config{HealthInterval: time.Hour})
	b, _ := c.backendFor("b0")
	for i := 1; i <= 3; i++ {
		if got := call(t, http.MethodGet, srv.URL+"/v1/jobs/b0/j1", nil); got.status != http.StatusBadGateway {
			t.Fatalf("read %d of a dead backend = %d: %s", i, got.status, got.body)
		}
		want := StateHealthy
		if i == 3 {
			want = StateDown
		}
		if b.State() != want {
			t.Fatalf("state after %d failed reads = %s, want %s", i, b.State(), want)
		}
	}
	if got := sample(t, c, `pdfd_cluster_health_transitions_total{backend="b0",to="down"}`); got != "1" {
		t.Fatalf("down transitions = %s, want 1", got)
	}
	if got := sample(t, c, `pdfd_cluster_backend_up{backend="b0"}`); got != "0" {
		t.Fatalf("backend_up = %s, want 0", got)
	}
	if resp, body := postSpec(t, srv.URL, enrichSpec(1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with the only backend down = %d: %s", resp.StatusCode, body)
	}
}
