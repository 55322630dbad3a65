package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Result replication (Config.ReplicationFactor >= 2): after the
// coordinator accepts a job, a watcher goroutine follows it to its
// terminal state and copies the completed result's JSON to the
// replica set — the first ReplicationFactor owners of the job's
// SpecDigest on the coordinator's ring, down backends included, so
// replica placement never walks as nodes flap. The executing backend
// already holds the result; each other replica gets a
// PUT /v1/cache/{key}. A replica that is down or
// unreachable gets a *hinted handoff*: the copy is queued and
// delivered after the next probe that finds the backend healthy. When the
// executing backend was not the primary owner (failover/spillover),
// the copy back to the owner is *read-repair* — the next submission
// of the same spec routes to the owner and hits its cache.
const (
	// maxWatchers bounds concurrent completion watchers; beyond it new
	// submissions skip replication (counted) rather than queue.
	maxWatchers = 64
	// maxHintsPerBackend bounds one backend's hinted-handoff queue;
	// overflow drops the oldest hint (counted).
	maxHintsPerBackend = 1024
	// watchFailureBudget consecutive poll failures end a watch.
	watchFailureBudget = 10
)

// hint is one deferred replica copy: key names the result, source the
// backend to fetch it from at delivery time.
type hint struct {
	key    string
	source string
}

type replicator struct {
	c  *Coordinator
	rf int

	// sem bounds concurrent watchers (buffered; try-send to acquire).
	sem chan struct{}

	mu     sync.Mutex
	closed bool
	hints  map[string][]hint // target backend -> pending copies

	wg sync.WaitGroup

	watches        atomic.Int64
	watchSkips     atomic.Int64
	installs       atomic.Int64
	repairs        atomic.Int64
	failures       atomic.Int64
	hintsQueued    atomic.Int64
	hintsDelivered atomic.Int64
	hintsDropped   atomic.Int64
}

func newReplicator(c *Coordinator, rf int) *replicator {
	return &replicator{
		c:     c,
		rf:    rf,
		sem:   make(chan struct{}, maxWatchers),
		hints: make(map[string][]hint),
	}
}

// close waits for the in-flight watchers and hint deliveries; the
// coordinator cancels its context first, so they exit promptly.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.wg.Wait()
}

// watch starts a completion watcher for an accepted job (backend-local
// ID rawID on backendName, routing digest digest). Past the watcher
// cap it skips — replication is best-effort and must never hold up
// submissions.
func (r *replicator) watch(backendName, rawID, digest string) {
	select {
	case r.sem <- struct{}{}:
	default:
		r.watchSkips.Add(1)
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.sem
		return
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		defer func() { <-r.sem }()
		r.runWatch(r.c.ctx, backendName, rawID, digest)
	}()
}

// runWatch long-polls the executing backend until the job terminates,
// then replicates a done job's result.
func (r *replicator) runWatch(ctx context.Context, backendName, rawID, digest string) {
	r.watches.Add(1)
	c := r.c
	b, ok := c.backends[backendName]
	if !ok {
		return
	}
	// Long-poll inside the per-request timeout so a still-running job
	// answers with its non-terminal view instead of timing out.
	wait := c.maxWait()
	path := "/v1/jobs/" + rawID + "?wait=" + wait.String()
	fails := 0
	for ctx.Err() == nil {
		status, body, _, err := c.do(ctx, b, http.MethodGet, path, "cache.replwait", nil, nil)
		if err != nil {
			fails++
			if fails >= watchFailureBudget {
				r.failures.Add(1)
				return
			}
			// A timer per retry (not time.After) so the cancel path does
			// not leave a running timer behind for the full wait.
			retry := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				retry.Stop()
				return
			case <-retry.C:
			}
			continue
		}
		fails = 0
		if status != http.StatusOK {
			// Job gone (backend restarted and lost it) or an error view;
			// nothing to replicate.
			r.failures.Add(1)
			return
		}
		var v engine.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			r.failures.Add(1)
			return
		}
		switch v.Status {
		case engine.StatusDone:
			if v.Result != nil && v.Result.CacheKey != "" {
				r.replicate(ctx, backendName, digest, v.Result)
			}
			return
		case engine.StatusFailed, engine.StatusCanceled:
			return
		}
	}
}

// replicate copies one completed result to every replica of its
// digest but the backend that executed the job. Every accepted
// submission is watched, cache hits included, so a repeated spec's
// result is offered again to replicas that hold it; such a replica
// answers the PUT from its store's index without writing the entry
// again.
func (r *replicator) replicate(ctx context.Context, executedOn, digest string, res *engine.Result) {
	c := r.c
	payload, err := json.Marshal(res)
	if err != nil {
		r.failures.Add(1)
		return
	}
	owners := c.ring.Owners(digest, r.rf)
	for i, name := range owners {
		if name == executedOn {
			continue // the executing backend stored it locally already
		}
		switch r.install(ctx, name, res.CacheKey, payload) {
		case installed:
			r.installs.Add(1)
			if i == 0 {
				// The primary owner missed the job (it executed on a
				// failover or spillover backend): this copy is the
				// read-repair that restores owner affinity.
				r.repairs.Add(1)
			}
		case unreachable:
			r.queueHint(name, hint{key: res.CacheKey, source: executedOn})
		case rejected:
			r.failures.Add(1)
		}
	}
}

// install outcomes.
type installOutcome int

const (
	installed   installOutcome = iota // the replica holds the copy
	unreachable                       // down / transport failure: hint it
	rejected                          // the replica can never take it
)

// install PUTs one result copy to a replica.
func (r *replicator) install(ctx context.Context, name, key string, payload []byte) installOutcome {
	c := r.c
	b, ok := c.backends[name]
	if !ok {
		return rejected
	}
	if b.State() == StateDown {
		return unreachable
	}
	status, _, _, err := c.do(ctx, b, http.MethodPut, "/v1/cache/"+key, "cache.replicate", payload, nil)
	switch {
	case err != nil:
		return unreachable
	case status < 300:
		return installed
	default:
		// A refusal, or no store (501): a hint would never deliver
		// either.
		return rejected
	}
}

// queueHint defers a replica copy until target recovers. Same-key
// hints are coalesced; a full queue drops the oldest.
func (r *replicator) queueHint(target string, h hint) {
	r.mu.Lock()
	q := r.hints[target]
	for i := range q {
		if q[i].key == h.key {
			q[i] = h
			r.mu.Unlock()
			return
		}
	}
	if len(q) >= maxHintsPerBackend {
		q = q[1:]
		r.hintsDropped.Add(1)
	}
	r.hints[target] = append(q, h)
	r.mu.Unlock()
	r.hintsQueued.Add(1)
}

// flushHints drains the backend's hint queue in a tracked goroutine;
// called by the health loop after every probe that finds b healthy.
// It returns at once when nothing is queued for b.
func (r *replicator) flushHints(b *backend) {
	r.mu.Lock()
	pending := r.hints[b.name]
	delete(r.hints, b.name)
	if len(pending) == 0 || r.closed {
		r.mu.Unlock()
		return
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		r.deliverHints(r.c.ctx, b, pending)
	}()
}

// deliverHints fetches each hinted result from its source backend and
// installs it on the healthy target. A delivery that fails in transport
// re-queues that hint and the ones after it for the target's next
// healthy probe; a refusal is final, as it is for install.
func (r *replicator) deliverHints(ctx context.Context, b *backend, pending []hint) {
	c := r.c
	for i, h := range pending {
		if ctx.Err() != nil {
			return
		}
		var payload []byte
		if src, ok := c.backends[h.source]; ok {
			status, body, _, err := c.do(ctx, src, http.MethodGet, "/v1/cache/"+h.key, "cache.hint_fetch", nil, nil)
			if err == nil && status == http.StatusOK {
				payload = body
			}
		}
		if payload == nil {
			// The source no longer holds the result (evicted, or itself
			// died); the copy is lost — it will be recomputed on demand.
			r.failures.Add(1)
			continue
		}
		status, _, _, err := c.do(ctx, b, http.MethodPut, "/v1/cache/"+h.key, "cache.hint_deliver", payload, nil)
		switch {
		case err != nil:
			for _, rest := range pending[i:] {
				r.queueHint(b.name, rest)
			}
			return
		case status >= 300:
			r.failures.Add(1)
		default:
			r.hintsDelivered.Add(1)
		}
	}
}

// pendingHints counts queued hinted handoffs across all backends.
func (r *replicator) pendingHints() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, q := range r.hints {
		n += len(q)
	}
	return n
}

// registerReplicationMetrics exposes the pdfd_cluster_replication_*
// family; only registered when replication is enabled.
func registerReplicationMetrics(reg *obs.Registry, r *replicator) {
	reg.MustRegister(
		obs.NewCounterFunc("pdfd_cluster_replication_watches_total",
			"Completion watchers started for accepted jobs.",
			func() float64 { return float64(r.watches.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_watch_skips_total",
			"Accepted jobs that skipped replication because the watcher cap was reached.",
			func() float64 { return float64(r.watchSkips.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_installs_total",
			"Result copies installed on replica backends.",
			func() float64 { return float64(r.installs.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_repairs_total",
			"Read-repairs: copies installed on the primary owner after the job executed elsewhere.",
			func() float64 { return float64(r.repairs.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_failures_total",
			"Replication attempts abandoned (watch gave up, payload rejected, or hint source lost).",
			func() float64 { return float64(r.failures.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_hints_queued_total",
			"Hinted handoffs queued for backends that were down at replication time.",
			func() float64 { return float64(r.hintsQueued.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_hints_delivered_total",
			"Hinted handoffs delivered after the target backend recovered.",
			func() float64 { return float64(r.hintsDelivered.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_replication_hints_dropped_total",
			"Hinted handoffs dropped because a backend's hint queue overflowed.",
			func() float64 { return float64(r.hintsDropped.Load()) }),
		obs.NewGaugeFunc("pdfd_cluster_replication_pending_hints",
			"Hinted handoffs currently queued.",
			func() float64 { return float64(r.pendingHints()) }),
		obs.NewGaugeFunc("pdfd_cluster_replication_factor",
			"Configured replication factor.",
			func() float64 { return float64(r.rf) }),
	)
}
