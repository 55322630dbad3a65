package engine

import (
	"slices"
	"sync"
	"sync/atomic"
)

// priIndex maps a normalized Spec.Priority to its band in a tenant's
// queue pair. normalized() has already rejected anything else.
func priIndex(p string) int {
	if p == PriorityBatch {
		return 1
	}
	return 0
}

// tenantQueue is one tenant's scheduler state: two FIFO priority bands
// (interactive dispatches strictly before batch), the deficit-round-
// robin counter, and the inflight count its quota is enforced on. All
// fields are guarded by the owning sched's mutex.
type tenantQueue struct {
	cfg    TenantConfig
	queues [2][]*Job // priIndex: 0 interactive, 1 batch
	// deficit is the tenant's unspent dispatch credit: topped up by
	// Weight when its turn comes, spent one job at a time. An emptied
	// queue forfeits the remainder, so an idle tenant cannot bank
	// credit and later burst past its weight.
	deficit  int
	inflight int
}

func (t *tenantQueue) queued() int { return len(t.queues[0]) + len(t.queues[1]) }

func (t *tenantQueue) weight() int {
	if t.cfg.Weight > 0 {
		return t.cfg.Weight
	}
	return 1
}

func (t *tenantQueue) bound(def int) int {
	if t.cfg.QueueDepth > 0 {
		return t.cfg.QueueDepth
	}
	return def
}

// atQuota reports whether the tenant's MaxInflight cap blocks another
// dispatch right now.
func (t *tenantQueue) atQuota() bool {
	return t.cfg.MaxInflight > 0 && t.inflight >= t.cfg.MaxInflight
}

// pop dequeues the tenant's next job: interactive band first.
func (t *tenantQueue) pop() *Job {
	for i := range t.queues {
		if q := t.queues[i]; len(q) > 0 {
			j := q[0]
			q[0] = nil // do not pin the dequeued job in the backing array
			t.queues[i] = q[1:]
			return j
		}
	}
	return nil
}

// sched is the engine's weighted-fair run queue: one bounded queue per
// tenant, deficit-round-robin dispatch across tenants, a max-inflight
// quota per tenant, and two priority bands inside each queue. It
// replaces the seed-era single `chan *Job`.
//
// Dispatch is pull-based: workers block on the wake channel and call
// dequeue, which scans tenants in a fixed round-robin order topping up
// each tenant's deficit by its weight when its turn comes. A tenant
// with queued work and credit dispatches; an empty tenant forfeits its
// credit; a tenant at its inflight quota is skipped without burning
// credit, and release re-wakes the workers when one of its jobs
// finishes. The wake channel holds at most one token — enqueue and
// release set it, and a worker that dequeues a job re-sets it while
// more work remains, so the invariant is: whenever dispatchable work
// exists, either a token is pending or a worker is inside dequeue.
type sched struct {
	// strict is set when tenants were configured: unknown tenant names
	// are rejected (ErrUnknownTenant) and per-tenant overflow sheds
	// with ErrQuotaExceeded instead of the anonymous-mode ErrBusy.
	strict       bool
	defaultDepth int
	wake         chan struct{}
	depth        atomic.Int64 // total queued, all tenants

	mu      sync.Mutex
	tenants map[string]*tenantQueue
	order   []string // round-robin order: configured order, then first-seen
	cursor  int
	// metrics holds the per-tenant rows a leaving tenant drops, under
	// mu so that a returning name's rows are never the ones dropped.
	metrics *Metrics
}

func newSched(cfg Config, m *Metrics) *sched {
	s := &sched{
		strict:       len(cfg.Tenants) > 0,
		defaultDepth: cfg.QueueDepth,
		wake:         make(chan struct{}, 1),
		tenants:      make(map[string]*tenantQueue),
		metrics:      m,
	}
	for _, tc := range cfg.Tenants {
		if !ValidTenantName(tc.Name) || s.tenants[tc.Name] != nil {
			continue // ParseTenants rejects these for pdfd; be lenient programmatically
		}
		s.addLocked(tc)
	}
	if s.tenants[DefaultTenant] == nil {
		// The implicit catch-all: jobs whose Spec names no tenant.
		s.addLocked(TenantConfig{Name: DefaultTenant})
	}
	return s
}

// addLocked registers a tenant queue. Caller holds s.mu (or is the
// constructor).
func (s *sched) addLocked(tc TenantConfig) *tenantQueue {
	t := &tenantQueue{cfg: tc}
	s.tenants[tc.Name] = t
	s.order = append(s.order, tc.Name)
	return t
}

// signal sets the wake token if it is not already pending.
func (s *sched) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueue adds a job to its tenant's queue, respecting the tenant's
// queue bound. In strict mode (tenants configured) an unknown tenant
// is rejected and overflow sheds with ErrQuotaExceeded; in anonymous
// mode unseen tenants are admitted with default bounds and overflow
// keeps the seed-era ErrBusy.
func (s *sched) enqueue(j *Job) error {
	name := j.spec.Tenant
	s.mu.Lock()
	t := s.tenants[name]
	if t == nil {
		if s.strict {
			s.mu.Unlock()
			return ErrUnknownTenant
		}
		t = s.addLocked(TenantConfig{Name: name})
	}
	if t.queued() >= t.bound(s.defaultDepth) {
		strict := s.strict
		s.mu.Unlock()
		if strict {
			return ErrQuotaExceeded
		}
		return ErrBusy
	}
	i := priIndex(j.spec.Priority)
	t.queues[i] = append(t.queues[i], j)
	s.depth.Add(1)
	s.mu.Unlock()
	s.signal()
	return nil
}

// dequeue picks the next job under deficit round-robin, charging the
// dispatch against the tenant's inflight count (undone by release).
// The second result reports whether more queued work remained at
// return — the caller re-signals the wake channel on it so idle
// workers join the drain.
func (s *sched) dequeue() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.order)
	// Two sweeps bound the scan: the first may only top up deficits,
	// the second then dispatches — or proves every tenant is empty,
	// blocked on its quota, or out of credit with nothing to forfeit.
	for scanned := 0; scanned < 2*n; scanned++ {
		t := s.tenants[s.order[s.cursor]]
		if t.queued() == 0 {
			t.deficit = 0 // forfeit: idle tenants bank no credit
			s.cursor = (s.cursor + 1) % n
			continue
		}
		if t.atQuota() {
			// Keep the deficit: the tenant resumes its turn when
			// release frees a slot.
			s.cursor = (s.cursor + 1) % n
			continue
		}
		if t.deficit < 1 {
			t.deficit += t.weight()
		}
		j := t.pop()
		t.deficit--
		t.inflight++
		s.depth.Add(-1)
		if t.deficit < 1 || t.queued() == 0 {
			s.cursor = (s.cursor + 1) % n // quantum spent or queue drained
		}
		return j, s.depth.Load() > 0
	}
	return nil, false
}

// release undoes a dequeue's inflight charge once the run ends (or the
// canceled-while-queued skip), then wakes the workers: a tenant parked
// at its quota may now dispatch.
//
// In anonymous mode a tenant other than the default one leaves the
// scheduler here once it has nothing queued or running, so the names
// clients invent do not accumulate. Only release can leave a tenant
// idle: dequeue always leaves it one job in flight.
func (s *sched) release(tenant string) {
	s.mu.Lock()
	if t := s.tenants[tenant]; t != nil && t.inflight > 0 {
		t.inflight--
		if !s.strict && tenant != DefaultTenant && t.inflight == 0 && t.queued() == 0 {
			s.removeLocked(tenant)
		}
	}
	s.mu.Unlock()
	s.signal()
}

// removeLocked drops an idle tenant from the map and the round-robin
// order, keeping the cursor on the tenant whose turn it was, and drops
// its metric rows. Caller holds s.mu.
func (s *sched) removeLocked(name string) {
	s.metrics.dropTenant(name)
	delete(s.tenants, name)
	i := slices.Index(s.order, name)
	s.order = slices.Delete(s.order, i, i+1)
	if i < s.cursor {
		s.cursor--
	}
	if s.cursor >= len(s.order) {
		s.cursor = 0
	}
}

// shed counts a submission shed at submit time in its tenant's
// pdfd_tenant_shed_total row, but only while the scheduler holds the
// tenant: removeLocked drops rows under the same mutex, so a row
// written for a tenant it never held, or already let go, would never
// leave.
func (s *sched) shed(tenant, reason string) {
	s.mu.Lock()
	if s.tenants[tenant] != nil {
		s.metrics.tenantShed.With(tenant, reason).Add(1)
	}
	s.mu.Unlock()
}

// len returns the total queued-job count across all tenants.
func (s *sched) len() int { return int(s.depth.Load()) }

// depths reports every tenant's queued-job count — the per-tenant
// queue depths of /v1/healthz.
func (s *sched) depths() map[string]int {
	snap := s.snapshot()
	out := make(map[string]int, len(snap))
	for name, t := range snap {
		out[name] = t.Queued
	}
	return out
}

// TenantSnapshot is one tenant's live scheduler state: the source of
// Snapshot.Tenants and of the pdfd_tenant_queued and
// pdfd_tenant_running gauges.
type TenantSnapshot struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Weight  int `json:"weight"`
}

// snapshot reports every tenant's scheduler state.
func (s *sched) snapshot() map[string]TenantSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantSnapshot, len(s.tenants))
	for name, t := range s.tenants {
		out[name] = TenantSnapshot{Queued: t.queued(), Running: t.inflight, Weight: t.weight()}
	}
	return out
}

// drain empties every tenant queue, returning the jobs in no
// particular order. Shutdown calls it after the workers have stopped
// to cancel whatever never reached one.
func (s *sched) drain() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, name := range s.order {
		t := s.tenants[name]
		for i := range t.queues {
			out = append(out, t.queues[i]...)
			t.queues[i] = nil
		}
		t.deficit = 0
	}
	s.depth.Store(0)
	return out
}
