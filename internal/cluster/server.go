package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
)

// Batch limits: a batch is a convenience fan-out, not a bulk loader.
const (
	maxBatchJobs     = 256
	batchConcurrency = 8
)

// BatchRequest is the POST /v1/jobs:batch body: an ordered list of job
// specs, each routed independently.
type BatchRequest struct {
	Jobs []json.RawMessage `json:"jobs"`
}

// BatchItem is one job's outcome inside a BatchResponse, at the same
// index as its spec in the request.
type BatchItem struct {
	Index int `json:"index"`
	// Status is "accepted" or "rejected".
	Status string `json:"status"`
	// ID is the routable "{backend}/{id}" job ID (accepted jobs only).
	ID string `json:"id,omitempty"`
	// Backend took the job; Owner is the ring owner of its digest;
	// Affinity is owner, failover or spillover (see Route).
	Backend  string `json:"backend,omitempty"`
	Owner    string `json:"owner,omitempty"`
	Affinity string `json:"affinity,omitempty"`
	// Error carries the /v1 error envelope body for rejected jobs.
	Error *engine.APIError `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/jobs:batch response. The HTTP status
// is 200 whenever the batch itself parsed; per-job failures live in
// Results.
type BatchResponse struct {
	Results  []BatchItem `json:"results"`
	Accepted int         `json:"accepted"`
	Rejected int         `json:"rejected"`
}

// HealthView is the coordinator's GET /v1/healthz body: fleet summary
// plus per-backend detail. Status is "ok" with at least one healthy
// backend, else "no_backend" beside a 503.
type HealthView struct {
	Status   string                   `json:"status"`
	Healthy  int                      `json:"healthy"`
	Backends map[string]BackendStatus `json:"backends"`
	// Tenants sums per-tenant queue depths across the fleet, from each
	// backend's last health report.
	Tenants map[string]int `json:"tenants"`
}

// NewServer returns the coordinator's HTTP handler — the same /v1
// surface shape as a single pdfd backend, fleet-routed:
//
//	POST   /v1/jobs                         route one job by SpecDigest → 202 JobView
//	POST   /v1/jobs:batch                   route a job list, per-job outcomes → 200 BatchResponse
//	GET    /v1/jobs/{backend}/{id}          proxied job snapshot (?wait= passes through, capped by maxWait)
//	DELETE /v1/jobs/{backend}/{id}          proxied cancel
//	GET    /v1/jobs/{backend}/{id}/trace    proxied span timeline
//	GET    /v1/jobs/{backend}/{id}/events   proxied SSE stream (Last-Event-ID passes through)
//	GET    /v1/traces/{trace_id}            assembled cross-node trace (routing + backend spans, skew-corrected)
//	GET    /v1/healthz                      fleet summary; 503 "no_backend" with zero healthy backends
//	GET    /v1/metrics                      Prometheus text format (OpenMetrics with exemplars via Accept)
//
// plus GET /v1/traces over the routing traces and GET /v1/version, as
// on pdfd (engine.Mux.Shared). Job IDs returned by the coordinator are
// "{backend}/{id}" and feed straight back into the GET/DELETE routes.
// Every failure is a *RoutedError answered by writeRouted, in the
// engine's envelope with two added codes: no_backend and backend_down.
func NewServer(c *Coordinator) http.Handler {
	s := &clusterServer{c: c, auth: engine.NewTenantAuth(c.cfg.Tenants)}
	// The job routes sit behind tenant auth (a no-op resolver when
	// Config.Tenants carries no keys) and the trace edge: a request
	// arriving without a traceparent gets a sampled one minted here,
	// so every backend hop it fans into shares one trace ID. The
	// liveness and metrics planes stay open.
	edge := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ctx, _ := c.ensureTraceContext(r.Context())
			h(w, r.WithContext(ctx))
		}
	}
	mux := engine.Mux{ServeMux: http.NewServeMux(), Logger: c.cfg.Logger, Metrics: c.httpMetrics, Auth: s.auth}
	mux.Route("POST /v1/jobs", "jobs.submit", edge(s.submit))
	mux.Route("POST /v1/jobs:batch", "jobs.batch", edge(s.batch))
	mux.Route("GET /v1/jobs/{backend}/{id}", "jobs.get", edge(s.proxy("", "jobs.get")))
	mux.Route("DELETE /v1/jobs/{backend}/{id}", "jobs.cancel", edge(s.proxy("", "jobs.cancel")))
	mux.Route("GET /v1/jobs/{backend}/{id}/trace", "jobs.trace", edge(s.proxy("/trace", "jobs.trace")))
	mux.Route("GET /v1/jobs/{backend}/{id}/events", "jobs.events", edge(s.proxy("/events", "jobs.events")))
	mux.Route("GET /v1/traces/{trace_id}", "traces.get", edge(s.tracesGet))
	mux.Open("GET /v1/healthz", "healthz", s.healthz)
	mux.Open("GET /v1/metrics", "metrics", c.registry.ServeHTTP)
	mux.Shared(c.traces)
	return mux.ServeMux
}

type clusterServer struct {
	c    *Coordinator
	auth *engine.TenantAuth
}

// invalid is the 400 (or 413 past engine.Body's cap) the coordinator
// answers a request it refuses before routing anything.
func invalid(err error) *RoutedError {
	return &RoutedError{Status: engine.BodyStatus(err), Code: engine.CodeInvalidSpec, Message: err.Error()}
}

func (s *clusterServer) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := engine.DecodeSpec(engine.Body(w, r))
	if err != nil {
		writeRouted(w, invalid(err))
		return
	}
	// The authenticated tenant owns the job, whatever the spec claims.
	if t := engine.RequestTenant(r.Context()); t != "" {
		spec.Tenant = t
	}
	res, rerr := s.c.Submit(r.Context(), spec)
	if res.BackendRequestID != "" {
		w.Header().Set("X-Pdfd-Backend-Request-ID", res.BackendRequestID)
	}
	if rerr != nil {
		writeRouted(w, rerr)
		return
	}
	w.Header().Set("X-Pdfd-Backend", res.Route.Backend)
	w.Header().Set("X-Pdfd-Affinity", res.Route.Affinity)
	engine.WriteJSON(w, http.StatusAccepted, res.View)
}

func (s *clusterServer) batch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(engine.Body(w, r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeRouted(w, invalid(fmt.Errorf("bad batch: %w", err)))
		return
	}
	if len(req.Jobs) == 0 {
		writeRouted(w, invalid(errors.New("empty batch")))
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeRouted(w, invalid(fmt.Errorf("batch of %d jobs exceeds the limit of %d", len(req.Jobs), maxBatchJobs)))
		return
	}
	s.c.metrics.batches.Add(1)
	s.c.metrics.batchJobs.Add(int64(len(req.Jobs)))

	results := make([]BatchItem, len(req.Jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, batchConcurrency)
	for i, raw := range req.Jobs {
		spec, err := engine.DecodeSpec(bytes.NewReader(raw))
		if err != nil {
			results[i] = BatchItem{Index: i, Status: "rejected",
				Error: &engine.APIError{Code: engine.CodeInvalidSpec, Message: err.Error()}}
			continue
		}
		wg.Add(1)
		go func(i int, spec engine.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = s.submitOne(r, i, spec)
		}(i, spec)
	}
	wg.Wait()

	resp := BatchResponse{Results: results}
	for _, it := range results {
		if it.Status == "accepted" {
			resp.Accepted++
		} else {
			resp.Rejected++
		}
	}
	engine.WriteJSON(w, http.StatusOK, resp)
}

// submitOne routes one batch entry; a failure becomes the item's
// envelope, naming the backend that answered it.
func (s *clusterServer) submitOne(r *http.Request, i int, spec engine.Spec) BatchItem {
	if t := engine.RequestTenant(r.Context()); t != "" {
		spec.Tenant = t
	}
	res, err := s.c.Submit(r.Context(), spec)
	item := BatchItem{Index: i, Status: "accepted",
		Backend: res.Route.Backend, Owner: res.Route.Owner, Affinity: res.Route.Affinity}
	if err != nil {
		item.Status = "rejected"
		item.Error = &engine.APIError{Code: err.Code, Message: err.Message, RetryAfterMS: err.RetryAfter.Milliseconds()}
		return item
	}
	item.ID = res.View.ID
	return item
}

// copyBufs holds the buffers proxied replies are copied through: most
// are small job views, which a fresh 32 KiB buffer apiece would dwarf.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// proxy returns the handler of one proxied job route. It forwards the
// method, query and Last-Event-ID to /v1/jobs/{id}<suffix> on the
// job's backend (a ?wait= past maxWait cut to it, so a long-poll
// answers before the deadline) and answers the backend's reply, its
// job IDs already routable (see engine.JobPrefixHeader). Down backends
// are still tried: they may be back before the next probe.
//
// RequestTimeout bounds the wait for the reply's headers; the body then
// runs under the client's context. No reply in time, or one declaring
// more than durable.MaxPayload, answers 502 backend_down; a non-200
// one answers as the backend's error; a 200 one is streamed.
func (s *clusterServer) proxy(suffix, route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.c.backendFor(r.PathValue("backend"))
		if !ok {
			writeRouted(w, &RoutedError{Status: http.StatusNotFound, Code: engine.CodeNotFound,
				Message: "unknown backend " + strconv.Quote(r.PathValue("backend"))})
			return
		}
		u := b.baseURL + "/v1/jobs/" + r.PathValue("id") + suffix
		if r.URL.RawQuery != "" {
			q := r.URL.Query()
			if d, err := time.ParseDuration(q.Get("wait")); err == nil && d > s.c.maxWait() {
				q.Set("wait", s.c.maxWait().String())
				r.URL.RawQuery = q.Encode()
			}
			u += "?" + r.URL.RawQuery
		}
		ctx, cancel := context.WithCancelCause(r.Context())
		defer cancel(nil)
		req, err := s.c.newOutboundRequest(ctx, r.Method, u, nil)
		if err != nil {
			writeRouted(w, backendDown(b, "%v", err))
			return
		}
		if lid := r.Header.Get("Last-Event-ID"); lid != "" {
			req.Header.Set("Last-Event-ID", lid)
		}
		resp, err := s.c.open(r.Context(), b, req, route, cancel)
		if err != nil {
			writeRouted(w, backendDown(b, "%v", err))
			return
		}
		defer resp.Body.Close()
		// One proxied request can be chased through both access logs.
		if rid := resp.Header.Get("X-Request-ID"); rid != "" {
			w.Header().Set("X-Pdfd-Backend-Request-ID", rid)
		}
		if resp.StatusCode != http.StatusOK {
			// An error envelope is small; a cut-short one does not
			// decode and answers as unreadable.
			body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			if err != nil {
				s.c.noteFailure(r.Context(), b)
			} else {
				b.reqFails.Store(0)
			}
			writeRouted(w, backendError(b, resp.StatusCode, body))
			return
		}
		if resp.ContentLength > durable.MaxPayload {
			s.c.noteFailure(r.Context(), b)
			writeRouted(w, backendDown(b, "reply of %d bytes exceeds the %d-byte bound", resp.ContentLength, durable.MaxPayload))
			return
		}
		s.stream(r.Context(), w, b, route, resp)
	}
}

// stream copies a 200 reply to the client as it arrives, flushing
// after each chunk of an SSE stream, and clears b's request failures
// at its clean end. A reply that runs past durable.MaxPayload is cut
// at the bound, and one the backend cuts short ends there: either
// counts against b (unless the client's ctx ended first) and aborts
// the client's connection, so no client reads a cut body as whole.
func (s *clusterServer) stream(ctx context.Context, w http.ResponseWriter, b *backend, route string, resp *http.Response) {
	for _, k := range [...]string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(http.StatusOK)
	var rc *http.ResponseController
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		rc = http.NewResponseController(w)
		rc.Flush()
	}
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	for total := int64(0); ; {
		n, err := resp.Body.Read(*bp)
		if total += int64(n); total > durable.MaxPayload {
			w.Write((*bp)[:n-int(total-durable.MaxPayload)])
			s.c.log.Warn("proxied reply cut at the bound", "backend", b.name, "route", route, "bound", durable.MaxPayload)
			s.c.noteFailure(ctx, b)
			panic(http.ErrAbortHandler)
		}
		if n > 0 {
			if _, werr := w.Write((*bp)[:n]); werr != nil {
				return // the client went away
			}
			if rc != nil {
				rc.Flush()
			}
		}
		if err == io.EOF {
			b.reqFails.Store(0)
			return
		}
		if err != nil {
			s.c.noteFailure(ctx, b)
			panic(http.ErrAbortHandler)
		}
	}
}

func (s *clusterServer) healthz(w http.ResponseWriter, r *http.Request) {
	hv := HealthView{Status: "ok", Healthy: s.c.Healthy(), Backends: s.c.Backends(), Tenants: s.c.TenantDepths()}
	if hv.Healthy == 0 {
		hv.Status = CodeNoBackend
		w.Header().Set("Retry-After", "1")
		engine.WriteJSON(w, http.StatusServiceUnavailable, hv)
		return
	}
	engine.WriteJSON(w, http.StatusOK, hv)
}

// tracesGet serves GET /v1/traces/{trace_id}: the retained routing
// trace stitched together with the owning backend's job timeline into
// one skew-corrected tree.
func (s *clusterServer) tracesGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("trace_id")
	rt, ok := s.c.Traces().Get(id)
	if !ok {
		writeRouted(w, &RoutedError{Status: http.StatusNotFound, Code: engine.CodeNotFound, Message: "no retained trace " + id})
		return
	}
	engine.WriteJSON(w, http.StatusOK, s.c.AssembleTrace(r.Context(), rt))
}

// writeRouted answers a failure in the engine's envelope.
func writeRouted(w http.ResponseWriter, err *RoutedError) {
	engine.WriteError(w, err.Status, err.Code, err.Message, err.RetryAfter)
}
