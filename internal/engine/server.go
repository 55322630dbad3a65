package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Stable machine-readable error codes of the /v1 error envelope. Every
// error response carries one:
//
//	{"error": {"code": "overloaded", "message": "...", "retry_after_ms": 1000}}
const (
	// CodeOverloaded: the submission was shed (watermark) or the queue
	// is hard-full; retry after error.retry_after_ms.
	CodeOverloaded = "overloaded"
	// CodeNotFound: no job with that ID.
	CodeNotFound = "not_found"
	// CodeInvalidSpec: the request body or query parameters do not
	// validate (unknown job kind, unknown field, bad pagination token).
	CodeInvalidSpec = "invalid_spec"
	// CodeEngineClosed: the engine is shutting down and accepts no work.
	CodeEngineClosed = "engine_closed"
	// CodeNoStore: a cache install (PUT /v1/cache/{key}) reached a
	// backend running without a durable store (-store not set).
	CodeNoStore = "no_store"
	// CodeUnauthorized: bearer auth is configured (-tenants with keys)
	// and the request carried no or an unknown credential — or named a
	// tenant the engine does not know.
	CodeUnauthorized = "unauthorized"
	// CodeQuotaExceeded: the authenticated tenant is over its queue
	// bound; per-tenant backpressure, retry after error.retry_after_ms.
	CodeQuotaExceeded = "quota_exceeded"
)

// APIError is the error half of the envelope; exported so clients and
// tests can unmarshal it.
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// JobPrefixHeader carries the prefix a cluster coordinator puts on
// the job IDs it proxies ("b0/"). A backend renders every job ID of the
// reply with it, so the coordinator passes the reply on as it came.
const JobPrefixHeader = "X-Pdfd-Job-Prefix"

// routableID is job id as the request's client names it: behind a
// coordinator, prefixed with the request's JobPrefixHeader.
func routableID(r *http.Request, id string) string { return r.Header.Get(JobPrefixHeader) + id }

// JobListPage is the /v1/jobs response: one page of jobs in submission
// order plus the token to resume from (absent on the last page).
type JobListPage struct {
	Jobs          []JobView `json:"jobs"`
	NextPageToken string    `json:"next_page_token,omitempty"`
}

// ServerConfig customizes NewServerWith.
type ServerConfig struct {
	// Logger receives one access-log record per request; nil disables
	// access logging.
	Logger *slog.Logger
	// Heartbeat paces the SSE keep-alive comments of
	// /v1/jobs/{id}/events; 0 uses 15s.
	Heartbeat time.Duration
}

// NewServer returns the JSON API handler served by cmd/pdfd. The
// canonical surface is versioned under /v1:
//
//	POST   /v1/jobs            submit a job (body: Spec) → 202 JobView
//	GET    /v1/jobs            list jobs; ?status= ?kind= ?limit= ?page_token=
//	GET    /v1/jobs/{id}       job snapshot with span timeline; ?wait=5s blocks
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/trace the job's span timeline alone
//	GET    /v1/jobs/{id}/events live job lifecycle stream (Server-Sent Events)
//	GET    /v1/traces/{trace_id} one retained trace with its full span timeline
//	GET    /v1/healthz         liveness probe; 503 "overloaded" past the watermark
//	GET    /v1/metrics         Prometheus text exposition (OpenMetrics with exemplars via Accept)
//
// plus GET /v1/traces and GET /v1/version (see Mux.Shared). Errors use
// one envelope everywhere — see APIError and WriteError.
func NewServer(e *Engine) http.Handler { return NewServerWith(e, ServerConfig{}) }

// NewServerWith is NewServer with access logging and an SSE
// heartbeat override.
func NewServerWith(e *Engine, sc ServerConfig) http.Handler {
	s := &server{e: e, cfg: sc, auth: NewTenantAuth(e.cfg.Tenants)}
	mux := Mux{http.NewServeMux(), sc.Logger, e.httpMetrics, s.auth}
	mux.Route("POST /v1/jobs", "jobs.submit", s.submit)
	mux.Route("GET /v1/jobs", "jobs.list", s.list)
	mux.Route("GET /v1/jobs/{id}", "jobs.get", s.get)
	mux.Route("DELETE /v1/jobs/{id}", "jobs.cancel", s.cancel)
	mux.Route("GET /v1/jobs/{id}/trace", "jobs.trace", s.trace)
	mux.Route("GET /v1/jobs/{id}/events", "jobs.events", s.jobEvents)
	mux.Route("GET /v1/cache/{key...}", "cache.get", s.cacheGet)
	mux.Route("PUT /v1/cache/{key...}", "cache.put", s.cachePut)
	mux.Route("GET /v1/traces/{trace_id}", "traces.get", s.tracesGet)
	mux.Open("GET /v1/healthz", "healthz", s.healthz)
	mux.Open("GET /v1/metrics", "metrics", e.Registry().ServeHTTP)
	mux.Shared(e.Traces())
	return mux.ServeMux
}

// Mux registers the routes of pdfd and of the coordinator, each under
// the access-log and metrics middleware labelled with its route name.
type Mux struct {
	*http.ServeMux
	Logger  *slog.Logger
	Metrics *obs.HTTPMetrics
	Auth    *TenantAuth
}

// Route registers h behind tenant auth.
func (m Mux) Route(pattern, name string, h http.HandlerFunc) {
	m.Handle(pattern, obs.Middleware(name, m.Logger, m.Metrics, m.Auth.Wrap(h)))
}

// Open registers h without auth: the liveness and metrics planes stay
// scrapeable by probes and Prometheus.
func (m Mux) Open(pattern, name string, h http.HandlerFunc) {
	m.Handle(pattern, obs.Middleware(name, m.Logger, m.Metrics, h))
}

// Shared registers the two routes pdfd and the coordinator serve
// alike: GET /v1/traces, the summaries of traces newest first
// (?min_duration= ?outcome= ?limit= narrow the set), and the open
// GET /v1/version, the binary's module version and toolchain.
func (m Mux) Shared(traces *obs.TraceBuffer) {
	m.Route("GET /v1/traces", "traces.list", func(w http.ResponseWriter, r *http.Request) {
		f, err := obs.ParseListFilter(r.URL.Query())
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error(), 0)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"traces": traces.List(f)})
	})
	m.Open("GET /v1/version", "version", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, obs.Version())
	})
}

type server struct {
	e    *Engine
	cfg  ServerConfig
	auth *TenantAuth
}

var unknownFieldRE = regexp.MustCompile(`unknown field "([^"]*)"`)

// DecodeSpec strictly decodes one JSON job spec: a field Spec does not
// declare is rejected by name. The error's message is what pdfd and
// the coordinator return in the invalid_spec envelope.
func DecodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		if m := unknownFieldRE.FindStringSubmatch(err.Error()); m != nil {
			return Spec{}, errors.New("unknown field " + strconv.Quote(m[1]) + " in job spec")
		}
		return Spec{}, fmt.Errorf("bad job spec: %w", err)
	}
	return spec, nil
}

// Body returns r's body for a handler to read, capped by
// http.MaxBytesReader at durable.MaxPayload, the journal's and the
// store's frame bound. A request that declares a longer body gets a
// reader that fails at once with *http.MaxBytesError: none of it is
// read before the 413.
func Body(w http.ResponseWriter, r *http.Request) io.Reader {
	if r.ContentLength > durable.MaxPayload {
		return errReader{&http.MaxBytesError{Limit: durable.MaxPayload}}
	}
	return http.MaxBytesReader(w, r.Body, durable.MaxPayload)
}

// errReader is a reader that fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// BodyStatus is the status answering a request whose body did not
// read or decode: 413 when it ran past Body's cap, 400 otherwise.
func BodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(Body(w, r))
	if err != nil {
		WriteError(w, BodyStatus(err), CodeInvalidSpec, err.Error(), 0)
		return
	}
	// The resolved tenant (bearer auth, or a coordinator's forwarded
	// header) overrides whatever the body claims: clients cannot ride
	// another tenant's queue by naming it in the Spec.
	if t := RequestTenant(r.Context()); t != "" {
		spec.Tenant = t
	}
	j, err := s.e.SubmitCtx(r.Context(), spec)
	switch {
	case err == nil:
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("job submitted",
				"request_id", obs.RequestID(r.Context()), "job_id", j.ID(),
				"kind", spec.Kind, "circuit", spec.Circuit, "tenant", spec.Tenant)
		}
		v := j.View()
		v.ID = routableID(r, v.ID)
		WriteJSON(w, http.StatusAccepted, v)
	case errors.Is(err, ErrQuotaExceeded):
		// Per-tenant backpressure: only this tenant is over its bound.
		WriteError(w, http.StatusTooManyRequests, CodeQuotaExceeded, err.Error(), time.Second)
	case errors.Is(err, ErrUnknownTenant):
		WriteError(w, http.StatusUnauthorized, CodeUnauthorized, err.Error(), 0)
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrBusy):
		// Backpressure, not failure: tell well-behaved clients when to
		// try again.
		WriteError(w, http.StatusServiceUnavailable, CodeOverloaded, err.Error(), time.Second)
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, CodeEngineClosed, err.Error(), 0)
	default:
		WriteError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error(), 0)
	}
}

// defaultPageLimit and maxPageLimit bound /v1/jobs pages; a journal
// can replay thousands of jobs, and unbounded listings stop scaling.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	q := JobsQuery{Limit: defaultPageLimit}
	qs := r.URL.Query()
	if v := qs.Get("status"); v != "" {
		switch st := Status(v); st {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
			q.Status = st
		default:
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, "unknown status "+strconv.Quote(v), 0)
			return
		}
	}
	if v := qs.Get("kind"); v != "" {
		switch k := Kind(v); k {
		case KindGenerate, KindEnrich, KindFaultSim:
			q.Kind = k
		default:
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, "unknown kind "+strconv.Quote(v), 0)
			return
		}
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, "bad limit "+strconv.Quote(v), 0)
			return
		}
		q.Limit = min(n, maxPageLimit)
	}
	if v := qs.Get("page_token"); v != "" {
		seq, err := decodePageToken(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, "bad page_token "+strconv.Quote(v), 0)
			return
		}
		q.AfterSeq = seq
	}
	views, nextSeq := s.e.JobsPage(q)
	page := JobListPage{Jobs: views}
	if nextSeq > 0 {
		page.NextPageToken = encodePageToken(nextSeq)
	}
	WriteJSON(w, http.StatusOK, page)
}

// The page token is the submission sequence number of the last job on
// the page, prefixed for a little opacity; treat it as opaque.
func encodePageToken(seq int64) string { return "s" + strconv.FormatInt(seq, 10) }

func decodePageToken(tok string) (int64, error) {
	if len(tok) < 2 || tok[0] != 's' {
		return 0, errors.New("bad token")
	}
	seq, err := strconv.ParseInt(tok[1:], 10, 64)
	if err != nil || seq < 0 {
		return 0, errors.New("bad token")
	}
	return seq, nil
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.e.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	if waitArg := r.URL.Query().Get("wait"); waitArg != "" {
		d, err := time.ParseDuration(waitArg)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, "bad wait duration: "+err.Error(), 0)
			return
		}
		timer := time.NewTimer(d)
		select {
		case <-j.Done():
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
	}
	v := j.View()
	v.ID = routableID(r, v.ID)
	WriteJSON(w, http.StatusOK, v)
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.e.Get(id); !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	canceled := s.e.Cancel(id)
	WriteJSON(w, http.StatusOK, map[string]any{"id": routableID(r, id), "canceled": canceled})
}

// cacheGet serves the raw result JSON cached under a key, from the
// memory LRU or the durable store — the source side of cluster
// replication and read-repair.
func (s *server) cacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, ok := s.e.CachedResult(key)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no cached result for "+key, 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// cachePut installs an externally computed result under a key — the
// sink side of cluster replication (the coordinator copies completed
// results to the ring successor). The payload must be a Result whose
// cache_key matches the path.
func (s *server) cachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, err := io.ReadAll(Body(w, r))
	if err != nil {
		WriteError(w, BodyStatus(err), CodeInvalidSpec, "read body: "+err.Error(), 0)
		return
	}
	if err := s.e.InstallResult(key, body); err != nil {
		if errors.Is(err, ErrNoStore) {
			WriteError(w, http.StatusNotImplemented, CodeNoStore, err.Error(), 0)
			return
		}
		WriteError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error(), 0)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"key": key, "installed": true})
}

func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.e.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"job_id": routableID(r, id), "trace": j.TraceView()})
}

// tracesGet serves GET /v1/traces/{trace_id}: one retained trace with
// its full span timeline.
func (s *server) tracesGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("trace_id")
	rt, ok := s.e.Traces().Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no retained trace "+id, 0)
		return
	}
	WriteJSON(w, http.StatusOK, rt)
}

// Health is the /v1/healthz response body.
// Status is the legacy plain field ("ok", or "overloaded" beside a 503
// past the shed watermark); QueueDepth and Inflight size the backend's
// current load so the cluster coordinator can rank backends for
// least-loaded spillover.
type Health struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	// Tenants maps tenant name → queued jobs, the per-tenant view of
	// QueueDepth. The coordinator sums these across backends into its
	// own health view.
	Tenants map[string]int `json:"tenants"`
	// NowUnixMS is the backend's wall clock at response time; the
	// coordinator pairs it with the probe round-trip to estimate
	// per-backend clock skew when merging cross-node trace timelines.
	NowUnixMS int64 `json:"now_unix_ms"`
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", QueueDepth: s.e.QueueDepth(), Inflight: s.e.Inflight(),
		Tenants: s.e.TenantDepths(), NowUnixMS: time.Now().UnixMilli()}
	if s.e.Overloaded() {
		h.Status = "overloaded"
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	WriteJSON(w, http.StatusOK, h)
}

// WriteJSON writes v as an indented JSON response with the given
// status; every success body of the engine and the coordinator goes
// through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError emits the unified error envelope; retryAfter > 0 also
// sets the Retry-After header (whole seconds, rounded up).
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	env := errorEnvelope{Error: APIError{Code: code, Message: msg}}
	if retryAfter > 0 {
		env.Error.RetryAfterMS = retryAfter.Milliseconds()
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	WriteJSON(w, status, env)
}
