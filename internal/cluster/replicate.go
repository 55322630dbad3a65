package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/obs"
)

// Result replication (Config.ReplicationFactor >= 2): a watcher
// follows each accepted job's event stream to its terminal event,
// whose data names a done job's cache key. A result is a pure function
// of its key, so copyResult streams it as opaque bytes from the
// executing backend to each other replica — the first
// ReplicationFactor owners of the job's SpecDigest on the ring, down
// backends included, so placement never walks as nodes flap. A
// replica that is down or unreachable gets a *hinted handoff*: the
// same copy, after the next probe that finds it healthy. A source
// that no longer holds the key by then loses the copy; the result is
// recomputed on demand. When the executing backend was not the
// primary owner (failover/spillover), the copy back to the owner is
// *read-repair* — the next submission of the same spec routes to the
// owner and hits its cache.
const (
	// maxWatchers bounds concurrent completion watchers; beyond it new
	// submissions skip replication (counted) rather than queue.
	maxWatchers = 64
	// maxHintsPerBackend bounds one backend's hinted-handoff queue;
	// overflow drops the oldest hint (counted).
	maxHintsPerBackend = 1024
	// watchFailureBudget failed event streams end a watch.
	watchFailureBudget = 10
)

// hint is one deferred replica copy: key names the result, source the
// backend to copy it from at delivery time.
type hint struct {
	key    string
	source *backend
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

// runWatch follows the job's event stream on the executing backend to
// its terminal event, then replicates a done job's result. A stream
// that fails to open or ends early is opened again after a backoff.
func (r *replicator) runWatch(ctx context.Context, backendName, rawID, digest string) {
	r.watches.Add(1)
	b, ok := r.c.backends[backendName]
	if !ok {
		return
	}
	for fails := 1; ctx.Err() == nil; fails++ {
		key, err := r.follow(ctx, b, rawID)
		if err == nil {
			if key != "" {
				r.replicate(ctx, b, digest, key)
			}
			return
		}
		if fails >= watchFailureBudget {
			r.failures.Add(1)
			return
		}
		// A timer per retry (not time.After) so the cancel path does
		// not leave a running timer behind for the full wait.
		retry := time.NewTimer(r.c.maxWait())
		select {
		case <-ctx.Done():
			retry.Stop()
			return
		case <-retry.C:
		}
	}
}

// follow reads the job's event stream on b to its terminal event, with
// the header deadline of a proxied stream, and returns the cache key
// that a done event names: "" for a failed or canceled job, or one the
// backend no longer knows (it restarted and lost it), which counts as
// a failure. An error is a stream that failed to open or ended early.
func (r *replicator) follow(ctx context.Context, b *backend, rawID string) (string, error) {
	c := r.c
	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	req, err := c.newOutboundRequest(sctx, http.MethodGet, b.baseURL+"/v1/jobs/"+rawID+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.open(ctx, b, req, "cache.replwait", cancel)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b.reqFails.Store(0)
	if resp.StatusCode != http.StatusOK {
		r.failures.Add(1)
		return "", nil
	}
	key := ""
	if err := engine.ReadEvents(resp.Body, func(ev events.Event) bool {
		key = ev.Data["cache_key"]
		return !engine.Status(ev.Type).Terminal()
	}); err != nil {
		c.noteFailure(ctx, b)
		return "", err
	}
	return key, nil
}

// replicate hands every replica of the job's digest but src, the
// backend that executed it, a hint for the result cached under key,
// delivered at once. Every accepted submission is watched, cache hits
// included, so a repeated spec's result is offered again to replicas
// that hold it; such a replica answers the PUT from its store's index
// without writing the entry again.
func (r *replicator) replicate(ctx context.Context, src *backend, digest, key string) {
	for i, name := range r.c.ring.Owners(digest, r.rf) {
		if name == src.name {
			continue // the executing backend stored it locally already
		}
		n := r.deliver(ctx, r.c.backends[name], []hint{{key: key, source: src}})
		r.installs.Add(n)
		if n > 0 && i == 0 {
			// The primary owner missed the job (it executed on a
			// failover or spillover backend): this copy is the
			// read-repair that restores owner affinity.
			r.repairs.Add(1)
		}
	}
}

// copyOutcome is how one copy of a result to a replica ended.
type copyOutcome int

const (
	installed   copyOutcome = iota // the target holds the result
	unreachable                    // target down or failed in transport: hint it
	refused                        // the target can never take it
	sourceLost                     // the source no longer holds the key, or broke mid-body
)

// copyResult streams the result cached under key from src to dst, the
// body of GET /v1/cache/{key} on src as the body of PUT
// /v1/cache/{key} on dst, all under the request timeout. The
// coordinator never decodes the result nor holds more of it than a
// copy buffer.
func (r *replicator) copyResult(ctx context.Context, key string, src, dst *backend) copyOutcome {
	c := r.c
	if dst.State() == StateDown {
		return unreachable
	}
	// srcCtx ends when the source breaks mid-body, so the PUT that
	// aborts is not charged to dst.
	srcCtx, srcBroke := context.WithCancelCause(ctx)
	defer srcBroke(nil)
	rctx, cancel := context.WithTimeout(srcCtx, c.cfg.RequestTimeout)
	defer cancel()
	get, err := c.newOutboundRequest(rctx, http.MethodGet, src.baseURL+"/v1/cache/"+key, nil)
	if err != nil {
		return sourceLost
	}
	resp, err := c.send(ctx, src, get, "cache.get")
	if err != nil {
		return sourceLost
	}
	defer resp.Body.Close()
	src.reqFails.Store(0)
	if resp.StatusCode != http.StatusOK {
		return sourceLost
	}
	put, err := c.newOutboundRequest(rctx, http.MethodPut, dst.baseURL+"/v1/cache/"+key, &sourceBody{r: resp.Body, broke: srcBroke})
	if err != nil {
		return refused
	}
	put.ContentLength = resp.ContentLength
	presp, err := c.send(srcCtx, dst, put, "cache.put")
	if err != nil {
		if srcCtx.Err() != nil && ctx.Err() == nil {
			c.noteFailure(ctx, src)
			return sourceLost
		}
		return unreachable
	}
	defer presp.Body.Close()
	io.Copy(io.Discard, presp.Body) // read out, so the connection is reused
	dst.reqFails.Store(0)
	if presp.StatusCode >= 300 {
		return refused
	}
	return installed
}

// sourceBody is a result on its way from its source. A read error
// other than io.EOF, or a body past durable.MaxPayload, ends the
// copy's source context: the source broke, not the replica.
type sourceBody struct {
	r     io.Reader
	n     int64
	broke context.CancelCauseFunc
}

func (s *sourceBody) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if s.n += int64(n); s.n > durable.MaxPayload {
		err = fmt.Errorf("cluster: cached result exceeds the %d-byte bound", durable.MaxPayload)
	}
	if err != nil && err != io.EOF {
		s.broke(err)
	}
	return n, err
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
		r.hintsDelivered.Add(r.deliver(r.c.ctx, b, pending))
	}()
}

// deliver copies each hinted result from its source backend to b and
// returns how many b installed. A copy that finds b down or fails in
// transport re-queues that hint and the ones after it for b's next
// healthy probe; a refusal or a lost source is final.
func (r *replicator) deliver(ctx context.Context, b *backend, pending []hint) int64 {
	n := int64(0)
	for i, h := range pending {
		if ctx.Err() != nil {
			return n
		}
		switch r.copyResult(ctx, h.key, h.source, b) {
		case installed:
			n++
		case unreachable:
			for _, rest := range pending[i:] {
				r.queueHint(b.name, rest)
			}
			return n
		default:
			r.failures.Add(1)
		}
	}
	return n
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
