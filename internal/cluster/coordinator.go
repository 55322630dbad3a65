// Package cluster turns N pdfd backends into one service: a
// coordinator fronts the fleet over the existing /v1 API, routing each
// job by consistent hashing on its engine.SpecDigest so resubmitting
// an identical (circuit, config, fault-set) spec lands on the backend
// that already holds the cached result.
//
// The subsystem is built from four pieces:
//
//   - one consistent-hash ring with virtual nodes (Ring), built in New
//     and never edited: deterministic placement of jobs and replicas;
//   - one health state per backend, the only thing routing reads: an
//     overloaded or draining backend stops receiving new jobs but keeps
//     serving status/trace/SSE reads; a backend that fails consecutive
//     /v1/healthz probes, or consecutive proxied requests, is skipped
//     in its keys' owner chains until a probe finds it healthy, so only
//     its keys move (~1/N of the key space) and they return when it
//     recovers;
//   - an HTTP client with request timeouts: a submission that fails in
//     transport goes to the next backend in its owner chain, and one
//     the ring owner sheds (503) spills to the least-loaded backend;
//   - cluster observability through internal/obs: per-backend
//     health/load gauges, routing and spillover counters, and proxied
//     request histograms, all on the coordinator's /v1/metrics.
//
// Job IDs become routable: the coordinator returns "{backend}/{id}"
// and streams GET and DELETE /v1/jobs/{backend}/{id} (and /trace,
// /events SSE) through from the owning backend, never holding a
// reply. POST /v1/jobs:batch fans a job list across the fleet and
// reports per-job accept/shed outcomes. See server.go for the HTTP
// surface and API.md for the contract.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Error codes the coordinator adds to the /v1 error envelope, beside
// the engine codes it passes on from a backend's reply (overloaded,
// not_found, invalid_spec, engine_closed).
const (
	// CodeNoBackend: no healthy backend is available to take the job
	// (all down or draining). Retryable.
	CodeNoBackend = "no_backend"
	// CodeBackendDown: the backend owning the requested job (or every
	// routing candidate for a submission) did not answer.
	CodeBackendDown = "backend_down"
)

// BackendConf names one pdfd backend for Config.
type BackendConf struct {
	// Name is the backend's stable identity: the ring hashes it, job
	// IDs are prefixed with it ("b0/j17"), and metrics label by it.
	// It must not contain "/" (the job-ID separator).
	Name string
	// URL is the backend's base URL ("http://10.0.0.5:8344").
	URL string
}

// Config sizes the coordinator.
type Config struct {
	// Backends is the fixed fleet. Backend health is dynamic (routing
	// follows probe results) but the configured set is not.
	Backends []BackendConf

	// HealthInterval paces the per-backend /v1/healthz probes; 0 uses
	// 2s. Three consecutive failed probes, or three consecutive proxied
	// requests that fail in transport, mark a backend down. Routing
	// skips a down backend in its keys' owner chains, so only its keys
	// move, and they return when a probe finds it healthy again.
	HealthInterval time.Duration

	// Tenants is the coordinator's tenant roster: entries with bearer
	// keys turn on auth for the /v1 job routes (same contract as the
	// engine server's -tenants). The coordinator authenticates at the
	// edge and forwards the resolved identity to backends in the
	// X-Pdfd-Tenant header, so backends themselves can run unkeyed.
	// Empty disables auth and forwards whatever tenant each Spec names.
	Tenants []engine.TenantConfig

	// ReplicationFactor is the number of backends each completed
	// result is stored on: the executing backend plus enough of the
	// key's ring owners, down or not, to reach this count. A
	// backend that is down when its copy is due gets a hinted handoff,
	// delivered when it recovers. 0 or 1 disables replication (the
	// pre-replication single-copy behavior); pdfd -coordinator enables
	// 2 by default.
	ReplicationFactor int

	// Transport overrides the coordinator's backend HTTP transport
	// (the chaos suite injects latency, errors and partitions here);
	// nil uses a pooled default.
	Transport http.RoundTripper

	// RequestTimeout bounds one of the coordinator's own backend
	// requests, and the wait for a proxied reply's headers (SSE
	// included; the body then runs as long as the client stays); 0
	// uses 30s. A forwarded long-poll waits at most half of it (see
	// maxWait).
	RequestTimeout time.Duration

	// Logger receives routing and health-transition records; nil
	// discards them.
	Logger *slog.Logger
}

func (cfg Config) withDefaults() Config {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	return cfg
}

// Coordinator fronts a pdfd fleet. Create with New, release with
// Close (which stops the health loops and idles the connections; the
// backends themselves are not touched).
type Coordinator struct {
	cfg         Config
	log         *slog.Logger
	registry    *obs.Registry
	httpMetrics *obs.HTTPMetrics
	metrics     *metrics
	client      *http.Client

	// backends is immutable after New; per-backend state lives in the
	// *backend values themselves.
	backends map[string]*backend
	order    []string // configured order, for stable iteration

	// ring holds every configured backend and is never edited after
	// New: routing skips the down backends in a key's owner chain;
	// replica placement does not, so copies stay put as backends fail.
	ring *Ring

	// repl drives result replication; nil when ReplicationFactor < 2.
	repl *replicator

	// traces tail-retains routing traces for /v1/traces (see tracing.go).
	traces *obs.TraceBuffer

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates cfg, builds the ring of every backend, all initially
// healthy, and starts one health-probe goroutine per backend.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	obs.RegisterGoRuntime(reg)
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 32}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:      cfg,
		log:      log,
		registry: reg,
		client:   &http.Client{Transport: transport},
		backends: make(map[string]*backend, len(cfg.Backends)),
		ring:     NewRing(DefaultVNodes),
		traces:   obs.NewTraceBuffer(obs.DefaultTraceBufferCount, obs.DefaultTraceBufferBytes),
		ctx:      ctx,
		cancel:   cancel,
	}
	c.metrics = newClusterMetrics(reg, c)
	c.httpMetrics = obs.NewHTTPMetrics(reg, "pdfd_coordinator")
	for _, bc := range cfg.Backends {
		if bc.Name == "" || strings.ContainsAny(bc.Name, "/ \t\n") {
			cancel()
			return nil, fmt.Errorf("cluster: bad backend name %q (must be non-empty, no slash or whitespace)", bc.Name)
		}
		if _, dup := c.backends[bc.Name]; dup {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate backend name %q", bc.Name)
		}
		u, err := url.Parse(bc.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			cancel()
			return nil, fmt.Errorf("cluster: bad backend URL %q (need http(s)://host[:port])", bc.URL)
		}
		b := newBackend(bc.Name, strings.TrimSuffix(bc.URL, "/"))
		c.backends[bc.Name] = b
		c.order = append(c.order, bc.Name)
		c.ring.Add(bc.Name)
	}
	if cfg.ReplicationFactor > 1 {
		c.repl = newReplicator(c, cfg.ReplicationFactor)
		registerReplicationMetrics(reg, c.repl)
	}
	for _, name := range c.order {
		c.wg.Add(1)
		go c.healthLoop(c.backends[name])
	}
	c.log.Info("cluster coordinator up", "backends", len(c.order), "vnodes", DefaultVNodes,
		"replication_factor", cfg.ReplicationFactor)
	return c, nil
}

// Registry returns the coordinator's metric registry, served on
// /v1/metrics by the cluster server.
func (c *Coordinator) Registry() *obs.Registry { return c.registry }

// Close stops the health loops, the replication watchers and releases
// idle connections. In flight proxied requests are canceled.
func (c *Coordinator) Close() {
	c.cancel()
	if c.repl != nil {
		c.repl.close()
	}
	c.wg.Wait()
	c.client.CloseIdleConnections()
}

// Owner returns the backend name currently owning routing key digest
// (an engine.SpecDigest), or "" when every backend is down.
func (c *Coordinator) Owner(digest string) string {
	if chain := c.ownerChain(digest); len(chain) > 0 {
		return chain[0]
	}
	return ""
}

// ownerChain is the routing preference list for digest: its owner
// chain on the ring without the backends that are down.
func (c *Coordinator) ownerChain(digest string) []string {
	chain := c.ring.Owners(digest, c.ring.Len())
	up := chain[:0]
	for _, name := range chain {
		if c.backends[name].State() != StateDown {
			up = append(up, name)
		}
	}
	return up
}

// RoutedError is the coordinator's one failure shape: a routing
// failure it produced itself, or a backend's error reply decoded where
// the coordinator received it (see backendError). writeRouted answers
// either on the wire.
type RoutedError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *RoutedError) Error() string { return "cluster: " + e.Code + ": " + e.Message }

// backendDown is the coordinator's 502 for a backend that could not be
// reached or answered what it cannot read: "backend NAME: " and the
// formatted reason.
func backendDown(b *backend, format string, args ...any) *RoutedError {
	return &RoutedError{Status: http.StatusBadGateway, Code: CodeBackendDown,
		Message: "backend " + b.name + ": " + fmt.Sprintf(format, args...), RetryAfter: time.Second}
}

// backendError decodes a backend's error reply. An envelope keeps its
// status, code, message and retry hint; engine and coordinator both
// write envelopes with engine.WriteError, so writeRouted re-encodes it
// byte for byte. Any other reply is backend_down with the backend's
// status.
func backendError(b *backend, status int, body []byte) *RoutedError {
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil || env.Error.Code == "" {
		e := backendDown(b, "returned an unreadable error (status %d)", status)
		e.Status, e.RetryAfter = status, 0
		return e
	}
	return &RoutedError{Status: status, Code: env.Error.Code, Message: env.Error.Message,
		RetryAfter: time.Duration(env.Error.RetryAfterMS) * time.Millisecond}
}

// Route records where a submission landed and why.
type Route struct {
	// Backend is the node that accepted the job; Owner is the ring
	// owner of its digest (they differ on failover and spillover).
	Backend string `json:"backend"`
	Owner   string `json:"owner,omitempty"`
	// Affinity is "owner" (ring owner took it), "failover" (owner
	// unavailable, next ring successor took it) or "spillover" (owner
	// shed with 503, least-loaded backend took it).
	Affinity string `json:"affinity"`
}

// SubmitResult is where a routed submission went: the accepted JobView
// with its routable "{backend}/{id}" ID, or, beside a backend's error,
// the backend that answered.
type SubmitResult struct {
	// View is the accepted job, ID routable; nil on error.
	View *engine.JobView
	// BackendRequestID is the X-Request-ID the backend answered with,
	// echoed to the client as X-Pdfd-Backend-Request-ID so one request
	// can be chased through both access logs.
	BackendRequestID string
	// Route tells where the job went, or which backend answered the
	// error (zero when no backend answered).
	Route Route
}

// Submit routes one spec across the fleet: ring owner first, healthy
// ring successors on owner unavailability, least-loaded spillover when
// the owner sheds. Every failure is a *RoutedError: no_backend or
// backend_down when no backend could take the job, or the answering
// backend's own error (invalid_spec, overloaded after a failed
// spillover), with the result naming that backend.
//
// Every submission records a routing trace (route / forward /
// spillover spans) under the caller's trace identity — minted at the
// edge when the caller carried none — and offers it to the tail
// retention buffer when the routing completes. Forwarded requests
// carry the routing trace as their traceparent, so the backend's job
// timeline grafts under this hop.
func (c *Coordinator) Submit(ctx context.Context, spec engine.Spec) (SubmitResult, *RoutedError) {
	ctx, edge := c.ensureTraceContext(ctx)
	tr := obs.NewTrace(obs.DefaultSpanLimit)
	tr.Adopt(edge)
	ctx = obs.WithTraceContext(obs.NewContext(ctx, tr), tr.Context())
	digest := engine.SpecDigest(spec)
	start := time.Now()
	sctx, root := obs.StartSpan(ctx, "route",
		obs.String("digest", digest[:16]),
		obs.String("kind", string(spec.Kind)),
		obs.String("circuit", spec.Circuit))
	res, err := c.routeSubmit(sctx, spec, digest)
	if err != nil {
		root.End(obs.String("error", err.Error()))
	} else {
		root.End(obs.String("backend", res.Route.Backend), obs.String("affinity", res.Route.Affinity))
	}
	c.offerRouteTrace(tr, string(spec.Kind), spec.Circuit, res, err, time.Since(start))
	return res, err
}

// routeSubmit is Submit's routing core, running inside the routing
// trace's root span.
func (c *Coordinator) routeSubmit(ctx context.Context, spec engine.Spec, digest string) (SubmitResult, *RoutedError) {
	body, err := json.Marshal(spec)
	if err != nil {
		return SubmitResult{}, &RoutedError{Status: http.StatusBadRequest, Code: engine.CodeInvalidSpec, Message: err.Error()}
	}
	// The forwarded request carries the tenant the coordinator resolved
	// (or the spec named), so unkeyed backends enqueue it on the right
	// tenant queue.
	tenant := spec.Tenant
	if tenant == "" {
		tenant = engine.DefaultTenant
	}
	hdr := http.Header{engine.TenantHeader: []string{tenant}}
	chain := c.ownerChain(digest)
	if len(chain) == 0 {
		return SubmitResult{}, &RoutedError{
			Status: http.StatusServiceUnavailable, Code: CodeNoBackend,
			Message: "no backend on the ring (all down)", RetryAfter: time.Second,
		}
	}
	owner := chain[0]
	tried := 0
	for _, name := range chain {
		b := c.backends[name]
		if b.State() != StateHealthy {
			continue
		}
		tried++
		route := Route{Backend: b.name, Owner: owner, Affinity: "owner"}
		if name != owner {
			route.Affinity = "failover"
		}
		res, err := c.forwardSubmit(ctx, "forward", b, body, hdr)
		if err == nil {
			return c.admit(res, route, digest, spec.NoCache, tenant), nil
		}
		var re *RoutedError
		if !errors.As(err, &re) {
			c.log.Warn("submit forward failed", "backend", b.name, "error", err.Error())
			continue // next ring successor
		}
		if re.Status == http.StatusServiceUnavailable {
			// The chosen backend shed the job: least-loaded spillover.
			c.metrics.sheds.With(b.name).Inc()
			if spill := c.spillTarget(b.name); spill != nil {
				if sres, serr := c.forwardSubmit(ctx, "spillover", spill, body, hdr); serr == nil {
					c.metrics.spillovers.Add(1)
					route = Route{Backend: spill.name, Owner: owner, Affinity: "spillover"}
					return c.admit(sres, route, digest, spec.NoCache, tenant), nil
				}
			}
		}
		// The backend's own answer (invalid_spec, engine_closed, or a
		// shed no spill target took): no retry elsewhere — the spec
		// would fail identically.
		res.Route = route
		return res, re
	}
	if tried > 0 {
		return SubmitResult{}, &RoutedError{
			Status: http.StatusBadGateway, Code: CodeBackendDown,
			Message: fmt.Sprintf("every routing candidate for %s failed", digest[:16]), RetryAfter: time.Second,
		}
	}
	return SubmitResult{}, &RoutedError{
		Status: http.StatusServiceUnavailable, Code: CodeNoBackend,
		Message: "no healthy backend (all draining or down)", RetryAfter: time.Second,
	}
}

// admit records an accepted submission on route: the routing counters
// and the replication hook — once the job is acknowledged, a watcher
// follows it to completion and copies the result to the replica set
// (no-op when replication is disabled or the spec bypasses the cache).
// Only the default tenant and the roster's names get a tenant row, so
// names clients invent cannot grow the exposition.
func (c *Coordinator) admit(res SubmitResult, route Route, digest string, noCache bool, tenant string) SubmitResult {
	res.Route = route
	c.metrics.routed.With(route.Backend, route.Affinity).Inc()
	if tenant == engine.DefaultTenant || slices.ContainsFunc(c.cfg.Tenants, func(t engine.TenantConfig) bool { return t.Name == tenant }) {
		c.metrics.tenantRouted.With(tenant, route.Affinity).Inc()
	}
	if c.repl != nil && !noCache {
		c.repl.watch(route.Backend, strings.TrimPrefix(res.View.ID, route.Backend+"/"), digest)
	}
	return res
}

// spillTarget picks the least-loaded healthy backend other than
// exclude (ties in configured order), or nil.
func (c *Coordinator) spillTarget(exclude string) *backend {
	var pick *backend
	var least int64
	for _, name := range c.order {
		b := c.backends[name]
		if name == exclude || b.State() != StateHealthy {
			continue
		}
		if l := b.load(); pick == nil || l < least {
			pick, least = b, l
		}
	}
	return pick
}

// forwardSubmit POSTs the spec to one backend inside a span named
// span. It returns the accepted view, which the backend gave a
// routable ID, or the backend's answer as a *RoutedError; any other
// error is a transport failure, which the caller answers by trying the
// next backend: results are seed-deterministic, so that backend's
// reply is the one this one would have given. BackendRequestID is set
// whenever the backend answered.
func (c *Coordinator) forwardSubmit(ctx context.Context, span string, b *backend, body []byte, fwdHdr http.Header) (SubmitResult, error) {
	ctx, sp := obs.StartSpan(ctx, span, obs.String("backend", b.name))
	var res SubmitResult
	status, reply, hdr, err := c.do(ctx, b, http.MethodPost, "/v1/jobs", "jobs.submit", body, fwdHdr)
	if err == nil {
		res.BackendRequestID = hdr.Get("X-Request-ID")
		var v engine.JobView
		if status != http.StatusAccepted {
			err = backendError(b, status, reply)
		} else if jerr := json.Unmarshal(reply, &v); jerr != nil {
			err = backendDown(b, "returned an unreadable job view: %v", jerr)
		} else {
			res.View = &v
		}
	}
	if err != nil {
		sp.End(obs.String("error", err.Error()))
		return res, err
	}
	sp.End(obs.Int("status", status))
	return res, nil
}

// maxWait is the longest ?wait= the coordinator forwards: half the
// per-request timeout, at least 50ms, so a backend answers a long-poll
// with the current view before the coordinator gives up on it.
func (c *Coordinator) maxWait() time.Duration {
	return max(c.cfg.RequestTimeout/2, 50*time.Millisecond)
}

// do performs one of the coordinator's own small requests against b
// (a submission, a trace read) under the request timeout and reads its
// reply, which must fit durable.MaxPayload. A transport failure (no
// HTTP response, or a reply cut short) counts against b. Replication
// buffers nothing: it streams (see copyResult).
func (c *Coordinator) do(ctx context.Context, b *backend, method, path, route string, body []byte, hdr http.Header) (int, []byte, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := c.newOutboundRequest(rctx, method, b.baseURL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.send(ctx, b, req, route)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, durable.MaxPayload+1))
	if err == nil && len(respBody) > durable.MaxPayload {
		err = fmt.Errorf("cluster: %s %s on %s: reply exceeds the %d-byte bound", method, path, b.name, durable.MaxPayload)
	}
	if err != nil {
		c.noteFailure(ctx, b)
		return 0, nil, nil, err
	}
	b.reqFails.Store(0)
	return resp.StatusCode, respBody, resp.Header, nil
}

// send sends req to b, naming b's job prefix in
// engine.JobPrefixHeader, maintaining b's proxied count and the proxy
// latency histogram, and counts a transport failure against b. Success
// is the caller's to record once it has read what it needs of the
// reply. ctx is the caller's context: a failure after
// it ended is not the backend's.
func (c *Coordinator) send(ctx context.Context, b *backend, req *http.Request, route string) (*http.Response, error) {
	req.Header.Set(engine.JobPrefixHeader, b.name+"/")
	b.proxied.Add(1)
	start := time.Now()
	resp, err := c.client.Do(req)
	b.proxied.Add(-1)
	c.metrics.proxySeconds.With(route).Observe(time.Since(start).Seconds())
	if err != nil {
		c.noteFailure(ctx, b)
		return nil, err
	}
	return resp, nil
}

// open is send for a reply read as it arrives (a proxied read, an
// event stream): RequestTimeout bounds only the wait for the reply's
// headers. When it passes first, cancel, which must end req's
// context, aborts the request, and a reply whose headers arrive just
// then is closed; either counts against b. The body then runs until
// req's context ends.
func (c *Coordinator) open(ctx context.Context, b *backend, req *http.Request, route string, cancel context.CancelCauseFunc) (*http.Response, error) {
	timer := time.AfterFunc(c.cfg.RequestTimeout, func() { cancel(context.DeadlineExceeded) })
	resp, err := c.send(ctx, b, req, route)
	if !timer.Stop() && err == nil { // the deadline fired as the headers arrived
		resp.Body.Close()
		c.noteFailure(ctx, b)
		err = context.DeadlineExceeded
	}
	return resp, err
}

// noteFailure records one transport failure against b: its error
// counter, and its consecutive request failures, of which downAfter
// mark it down. If the caller's ctx ended first it counts nothing: the
// failure is not the backend's.
func (c *Coordinator) noteFailure(ctx context.Context, b *backend) {
	if ctx.Err() != nil {
		return
	}
	c.metrics.backendErrors.With(b.name).Inc()
	if b.reqFails.Add(1) >= downAfter {
		c.setState(b, StateDown)
	}
}

// BackendStatus is one backend's externally visible state, as
// served in the coordinator's /v1/healthz body.
type BackendStatus struct {
	URL           string `json:"url"`
	State         State  `json:"state"`
	QueueDepth    int    `json:"queue_depth"`
	Inflight      int    `json:"inflight"`
	ProxyInflight int64  `json:"proxy_inflight"`
	// Tenants is the backend's per-tenant queue depths from its last
	// health report (absent until the first successful probe).
	Tenants map[string]int `json:"tenants,omitempty"`
}

// Backends snapshots every configured backend's status, keyed by name.
func (c *Coordinator) Backends() map[string]BackendStatus {
	out := make(map[string]BackendStatus, len(c.backends))
	for name, b := range c.backends {
		out[name] = BackendStatus{
			URL:           b.baseURL,
			State:         b.State(),
			QueueDepth:    int(b.queueDepth.Load()),
			Inflight:      int(b.inflight.Load()),
			ProxyInflight: b.proxied.Load(),
			Tenants:       b.tenantDepths(),
		}
	}
	return out
}

// TenantDepths aggregates per-tenant queue depths across the fleet
// (each backend's last health report summed by tenant name).
func (c *Coordinator) TenantDepths() map[string]int {
	out := make(map[string]int)
	for _, name := range c.order {
		for tenant, n := range c.backends[name].tenantDepths() {
			out[tenant] += n
		}
	}
	return out
}

// Healthy returns the number of backends currently in StateHealthy.
func (c *Coordinator) Healthy() int {
	n := 0
	for _, b := range c.backends {
		if b.State() == StateHealthy {
			n++
		}
	}
	return n
}

// backendFor resolves a backend by name (the prefix of a routable
// "{backend}/{id}" job ID).
func (c *Coordinator) backendFor(name string) (*backend, bool) {
	b, ok := c.backends[name]
	return b, ok
}
