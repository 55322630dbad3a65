package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a backend's health state as seen by the coordinator.
type State string

// Backend health states. Only the health-check loop writes a
// backend's state; routing reads it lock-free.
const (
	// StateHealthy backends receive new jobs and reads.
	StateHealthy State = "healthy"
	// StateDraining backends answered /v1/healthz with 503
	// "overloaded" (shed watermark tripped, or a graceful drain in
	// progress): they stop receiving new jobs but keep their keys and
	// keep serving status, trace and SSE reads for the jobs they hold.
	StateDraining State = "draining"
	// StateDown backends failed Config.DownAfter consecutive health
	// probes: routing skips them in their keys' owner chains on the
	// static ring, so only their keys move, to the next backend in each
	// chain, and return when they recover. Reads are still
	// attempted — the backend may be back before the next probe — and
	// fail with backend_down if not.
	StateDown State = "down"
)

// backend is one pdfd node behind the coordinator. The health loop is
// the only writer of state and the load snapshot; routing and the
// metrics registry read them through atomics.
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

	// consecFails is owned by the backend's single health goroutine.
	consecFails int

	// tenantMu guards tenants, the per-tenant queue depths from the
	// backend's last /v1/healthz body (written by the health loop, read
	// by the coordinator's health aggregation).
	tenantMu sync.Mutex
	tenants  map[string]int

	brk breaker
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

func newBackend(name, baseURL string, brkThreshold int, brkCooldown time.Duration) *backend {
	b := &backend{
		name:    name,
		baseURL: baseURL,
		brk:     breaker{threshold: brkThreshold, cooldown: brkCooldown},
	}
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

// breaker is a per-backend circuit breaker over proxied requests:
// threshold consecutive failures open it for cooldown, during which
// the backend is skipped without burning a connection attempt; after
// the cooldown one half-open trial request is let through — success
// closes the breaker, failure re-opens it for another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	halfOpen  bool
}

// allow reports whether a request may be sent at time now.
func (k *breaker) allow(now time.Time) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.fails < k.threshold {
		return true
	}
	if now.Before(k.openUntil) {
		return false
	}
	if k.halfOpen {
		return false // one trial at a time
	}
	k.halfOpen = true
	return true
}

// success closes the breaker.
func (k *breaker) success() {
	k.mu.Lock()
	k.fails = 0
	k.halfOpen = false
	k.mu.Unlock()
}

// release ends a half-open trial without a verdict, so the next
// allow lets a new trial through.
func (k *breaker) release() {
	k.mu.Lock()
	k.halfOpen = false
	k.mu.Unlock()
}

// failure records a failed request at time now; it reports whether
// this failure transitioned the breaker from closed to open (for the
// breaker-opens counter — re-opens after a failed half-open trial
// also count).
func (k *breaker) failure(now time.Time) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	wasOpen := k.fails >= k.threshold
	k.fails++
	if k.fails < k.threshold {
		return false
	}
	k.openUntil = now.Add(k.cooldown)
	opened := !wasOpen || k.halfOpen
	k.halfOpen = false
	return opened
}
