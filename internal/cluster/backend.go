package cluster

import (
	"sync"
	"sync/atomic"
)

// State is a backend's health state as seen by the coordinator.
type State string

// Backend health states. The health loop and failing proxied requests
// write a backend's state, each transition by compare-and-swap (see
// Coordinator.setState); routing reads it lock-free.
const (
	// StateHealthy backends receive new jobs and reads.
	StateHealthy State = "healthy"
	// StateDraining backends answered /v1/healthz with 503
	// "overloaded" (shed watermark tripped, or a graceful drain in
	// progress): they stop receiving new jobs but keep their keys and
	// keep serving status, trace and SSE reads for the jobs they hold.
	StateDraining State = "draining"
	// StateDown backends failed downAfter consecutive health probes or
	// downAfter consecutive proxied requests: routing skips them in
	// their keys' owner chains on the static ring, so only their keys
	// move, to the next backend in each chain, and return when a probe
	// finds them healthy again. Reads are still attempted — the backend
	// may be back before the next probe — and fail with backend_down if
	// not.
	StateDown State = "down"
)

// backend is one pdfd node behind the coordinator. The health loop is
// the only writer of the load snapshot; it shares state with the
// request goroutines that count failures (see State). Routing and the
// metrics registry read both through atomics.
type backend struct {
	name    string
	baseURL string // scheme://host[:port], no trailing slash

	state      atomic.Value // State
	queueDepth atomic.Int64 // from the last /v1/healthz body
	inflight   atomic.Int64 // from the last /v1/healthz body

	// Clock telemetry from the last successful probe: the backend's
	// estimated wall-clock offset relative to the coordinator
	// (remote minus local, milliseconds) and the probe round trip
	// (microseconds). Trace assembly reads both.
	skewMS    atomic.Int64
	rttMicros atomic.Int64

	// proxied counts the coordinator-side requests currently in flight
	// to this backend (the pdfd_cluster_proxy_inflight gauge).
	proxied atomic.Int64

	// probeFails counts consecutive failed probes; it is owned by the
	// backend's single health goroutine. reqFails counts consecutive
	// proxied requests that failed in transport, from any goroutine.
	probeFails int
	reqFails   atomic.Int64

	// tenantMu guards tenants, the per-tenant queue depths from the
	// backend's last /v1/healthz body (written by the health loop, read
	// by the coordinator's health aggregation).
	tenantMu sync.Mutex
	tenants  map[string]int
}

// setTenants replaces the backend's per-tenant depth snapshot.
func (b *backend) setTenants(m map[string]int) {
	b.tenantMu.Lock()
	b.tenants = m
	b.tenantMu.Unlock()
}

// tenantDepths copies the backend's per-tenant depth snapshot.
func (b *backend) tenantDepths() map[string]int {
	b.tenantMu.Lock()
	defer b.tenantMu.Unlock()
	if len(b.tenants) == 0 {
		return nil
	}
	out := make(map[string]int, len(b.tenants))
	for k, v := range b.tenants {
		out[k] = v
	}
	return out
}

func newBackend(name, baseURL string) *backend {
	b := &backend{name: name, baseURL: baseURL}
	b.state.Store(StateHealthy) // optimistic until the first probe
	return b
}

// State returns the backend's current health state.
func (b *backend) State() State { return b.state.Load().(State) }

// load ranks the backend for least-loaded spillover: queued plus
// running jobs from its last health report, plus the coordinator-side
// requests already in flight to it (submissions the health report
// cannot have seen yet).
func (b *backend) load() int64 {
	return b.queueDepth.Load() + b.inflight.Load() + b.proxied.Load()
}
