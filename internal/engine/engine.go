package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/robust"
	"repro/internal/store"
	"repro/internal/testio"
)

// Engine errors.
var (
	ErrClosed     = errors.New("engine: closed")
	ErrBusy       = errors.New("engine: queue full")
	ErrOverloaded = errors.New("engine: overloaded, retry later")
	ErrUnknownJob = errors.New("engine: unknown job")
	// ErrQuotaExceeded rejects a submission whose tenant is over its
	// configured queue bound (multi-tenant mode; HTTP 429). The
	// anonymous default tenant of an unconfigured engine keeps the
	// seed-era ErrBusy instead.
	ErrQuotaExceeded = errors.New("engine: tenant queue quota exceeded, retry later")
	// ErrUnknownTenant rejects a submission naming a tenant the engine
	// was not configured with (multi-tenant mode; HTTP 401).
	ErrUnknownTenant = errors.New("engine: unknown tenant")
)

// PanicError is a panic captured from a job attempt by the engine's
// per-job recover. It is confined to the job: the worker goroutine,
// the other jobs and the process survive, and the job is retried if it
// has budget left.
type PanicError struct {
	Value string // the panic value, stringified
	Stack string // the goroutine stack at the panic site
}

func (p *PanicError) Error() string { return "engine: job panicked: " + p.Value }

// Config sizes the engine.
type Config struct {
	// Workers is the job worker pool size; 0 uses GOMAXPROCS.
	Workers int
	// SimWorkers is ignored: jobs fault simulate with the word-parallel
	// bitsim simulator, which has no shards.
	//
	// Deprecated: ignored.
	SimWorkers int
	// QueueDepth bounds each tenant queue that does not set its own
	// TenantConfig.QueueDepth; beyond it Submit returns ErrBusy
	// (anonymous mode) or ErrQuotaExceeded (configured tenants).
	// 0 means 64.
	QueueDepth int

	// Tenants declares the engine's tenants: per-tenant queue bounds,
	// deficit-round-robin weights, max-inflight quotas and the bearer
	// keys the server authenticates with. Empty runs the engine in
	// anonymous mode: every job shares the DefaultTenant queue unless
	// its Spec names another (admitted with default bounds), and
	// nothing requires auth.
	Tenants []TenantConfig
	// CacheSize bounds the result cache entry count; 0 means 128.
	CacheSize int
	// DefaultTimeout bounds jobs that do not set Spec.TimeoutMS;
	// 0 means no deadline.
	DefaultTimeout time.Duration

	// MaxRetries is the default retry budget of jobs that do not set
	// Spec.MaxRetries: an attempt that panics or fails with a
	// non-cancellation error is re-queued with backoff up to this
	// many times before the job goes to StatusFailed. 0 means a
	// first failure is final.
	MaxRetries int
	// RetryPolicy shapes the backoff between retries; zero fields use
	// the retry package defaults (100ms base, 30s cap, 2x growth,
	// ±20% jitter).
	RetryPolicy retry.Policy

	// ShedWatermark is the queue depth at which the engine starts
	// shedding new submissions with ErrOverloaded, before the queue
	// is hard-full (ErrBusy at QueueDepth). Shedding stops once the
	// queue drains to half the watermark (hysteresis). 0 disables
	// shedding.
	ShedWatermark int

	// Journal, when set, receives every job lifecycle transition as a
	// durable WAL record; Restore replays a reopened journal after a
	// crash. Engine-shutdown cancellations are deliberately not
	// journaled, so interrupted jobs stay live on disk and re-run on
	// restart. nil disables journaling.
	Journal *journal.Log
	// JournalCompactEvery paces journal compaction: after this many
	// appended records the log is rewritten to just the live jobs.
	// 0 means 256.
	JournalCompactEvery int

	// Store, when set, is the durable on-disk result store behind the
	// in-memory LRU: completed results are written through on job
	// completion and read through on a memory miss, so a restarted
	// process (same store directory) serves cache hits for work
	// computed before it died. nil keeps results in memory only.
	Store *store.Store

	// Injector, when set, is invoked at named pipeline sites; the
	// chaos tests use it to inject panics, latency and simulated
	// crashes (see chaos.go). nil disables injection.
	Injector FaultInjector

	// Logger receives the engine's structured job-lifecycle records
	// (submit, start, retry, finish, journal health), each correlated
	// by job_id. nil discards them.
	Logger *slog.Logger
	// TraceSpanLimit bounds each job's span timeline; 0 uses
	// obs.DefaultSpanLimit. Spans past the limit are dropped and
	// counted in the trace snapshot. A negative limit disables span
	// collection entirely: jobs carry no trace and pay no span cost.
	TraceSpanLimit int

	// TraceSample is the head-sampling rate for traces the engine
	// roots itself (submissions without a caller traceparent): the
	// fraction of trace IDs whose completed traces the tail buffer
	// keeps even when fast and successful. 0 means 1.0 (keep
	// everything; error and slowest-percentile traces are kept
	// regardless of this rate); negative means 0.
	TraceSample float64
	// TraceBufferCount / TraceBufferBytes cap the tail-retention
	// trace buffer; 0 uses obs.DefaultTraceBufferCount /
	// obs.DefaultTraceBufferBytes.
	TraceBufferCount int
	TraceBufferBytes int64

	// EventHistory bounds each job's event-stream history ring (the
	// replay window of /v1/jobs/{id}/events); 0 uses
	// events.DefaultHistory.
	EventHistory int
}

// Engine runs jobs on a bounded worker pool. Create with New, release
// with Close (or Shutdown for a graceful drain).
type Engine struct {
	cfg          Config
	metrics      *Metrics
	cache        *cache
	compactEvery int
	log          *slog.Logger
	registry     *obs.Registry
	httpMetrics  *obs.HTTPMetrics
	events       *events.Bus
	traces       *obs.TraceBuffer

	ctx    context.Context
	cancel context.CancelFunc
	sched  *sched
	wg     sync.WaitGroup

	overloaded atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	closed bool
	seq    int64
	jobs   map[string]*Job
	order  []string
}

// New starts an engine with cfg's pool.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	compactEvery := cfg.JournalCompactEvery
	if compactEvery <= 0 {
		compactEvery = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	m := newMetrics()
	e := &Engine{
		cfg:          cfg,
		metrics:      m,
		cache:        newCache(cfg.CacheSize),
		compactEvery: compactEvery,
		log:          logger,
		ctx:          ctx,
		cancel:       cancel,
		sched:        newSched(cfg, m.tenantQueued, m.tenantRunning),
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
		jobs:         make(map[string]*Job),
		events:       events.NewBus(cfg.EventHistory),
		traces:       obs.NewTraceBuffer(cfg.TraceBufferCount, cfg.TraceBufferBytes),
	}
	e.registry = buildRegistry(e)
	e.httpMetrics = obs.NewHTTPMetrics(e.registry, "pdfd")
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Registry returns the engine's Prometheus registry: job/cache/journal
// counters, queue gauges, stage and job latency histograms, and the
// HTTP metrics fed by the server middleware. Serve it with
// obs.Registry.WritePrometheus (pdfd does, on /metrics and
// /v1/metrics).
func (e *Engine) Registry() *obs.Registry { return e.registry }

// Events returns the engine's job lifecycle event bus. Every job
// publishes queued, attempt, stage, retrying and terminal
// (done/failed/canceled) events on its own stream; the server's SSE
// endpoint subscribes here.
func (e *Engine) Events() *events.Bus { return e.events }

// Submit validates and enqueues a job, returning it immediately.
// Past the global shed watermark it rejects with ErrOverloaded; a
// tenant over its own queue bound is shed with ErrQuotaExceeded
// (configured tenants) or ErrBusy (anonymous mode); an unknown tenant
// of a configured engine is rejected with ErrUnknownTenant.
//
// The job roots a fresh trace; callers holding a W3C trace context
// (the HTTP server, the coordinator) use SubmitCtx so the job's spans
// graft under the caller's trace instead.
func (e *Engine) Submit(spec Spec) (*Job, error) {
	return e.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with caller correlation: a W3C trace context
// carried by ctx (obs.WithTraceContext — the server middleware parses
// the traceparent header into it) becomes the parent of the job's
// trace, adopting the caller's trace ID and sampling decision. ctx is
// only read for correlation values; its cancellation does not bound
// the job.
func (e *Engine) SubmitCtx(ctx context.Context, spec Spec) (*Job, error) {
	spec, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	if e.cfg.ShedWatermark > 0 {
		e.updateWatermark()
		if e.overloaded.Load() {
			e.metrics.jobsShed.Add(1)
			e.metrics.tenantShed.With(spec.Tenant, "overloaded").Add(1)
			e.sched.recordShed(spec.Tenant)
			e.log.Warn("job shed", "kind", spec.Kind, "circuit", spec.Circuit, "tenant", spec.Tenant,
				"queue_depth", e.sched.len(), "watermark", e.cfg.ShedWatermark)
			return nil, ErrOverloaded
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.seq++
	j := &Job{
		id:         fmt.Sprintf("j%d", e.seq),
		seq:        e.seq,
		spec:       spec,
		maxRetries: e.maxRetries(spec),
		status:     StatusQueued,
		created:    time.Now(),
		done:       make(chan struct{}),
	}
	remote, _ := obs.TraceContextFrom(ctx)
	j.initTrace(e.cfg.TraceSpanLimit, remote, e.traceSampleRate(),
		obs.String("job_id", j.id),
		obs.String("kind", string(spec.Kind)),
		obs.String("circuit", spec.Circuit),
		obs.String("tenant", spec.Tenant),
		obs.String("priority", spec.Priority))
	// Registration and enqueue share one critical section: a rejected
	// job leaves no trace in jobs/order, and a job never lands in a
	// tenant queue after Close (which flips closed under the same
	// mutex) has started draining. jobsSubmitted is bumped before the
	// enqueue so the derived queued gauge never goes negative if a
	// worker finishes the job immediately.
	e.metrics.jobsSubmitted.Add(1)
	if err := e.sched.enqueue(j); err != nil {
		e.metrics.jobsSubmitted.Add(-1)
		e.seq--
		e.mu.Unlock()
		switch {
		case errors.Is(err, ErrQuotaExceeded):
			e.metrics.jobsShed.Add(1)
			e.metrics.tenantShed.With(spec.Tenant, "quota").Add(1)
			e.log.Warn("job shed", "kind", spec.Kind, "circuit", spec.Circuit,
				"tenant", spec.Tenant, "reason", "quota")
		case errors.Is(err, ErrBusy):
			e.metrics.tenantShed.With(spec.Tenant, "queue_full").Add(1)
		}
		return nil, err
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.mu.Unlock()
	// Journaled outside the lock: the fsync must not serialize
	// submissions. A worker may journal this job's OpStarted first;
	// replay is order-insensitive.
	e.journalAppend(journal.Record{Op: journal.OpSubmitted, JobID: j.id, Seq: j.seq, Tenant: spec.Tenant, Spec: marshalSpec(spec)})
	e.events.Publish(j.id, "queued", map[string]string{
		"kind": string(spec.Kind), "circuit": spec.Circuit,
		"tenant": spec.Tenant, "priority": spec.Priority,
	})
	e.updateWatermark()
	e.log.Debug("job submitted", "job_id", j.id, "kind", spec.Kind, "circuit", spec.Circuit,
		"tenant", spec.Tenant, "priority", spec.Priority)
	return j, nil
}

// finish performs a terminal transition through markDone and, when it
// won, records the end-of-job observability: status counter, the
// end-to-end latency histogram, the root span, and a log record.
func (e *Engine) finish(j *Job, st Status, res *Result, hit bool, err error) bool {
	if !j.markDone(st, res, hit, err) {
		return false
	}
	e.afterTerminal(j, st, err)
	return true
}

// afterTerminal records the observability of a terminal transition
// that already happened (markDone or cancelQueued returned true), then
// wakes the job's waiters: a client that scrapes right after Done sees
// the job in every counter and histogram.
func (e *Engine) afterTerminal(j *Job, st Status, err error) {
	defer j.wake()
	switch st {
	case StatusDone:
		e.metrics.jobsDone.Add(1)
		e.metrics.tenantDone.With(j.spec.Tenant).Add(1)
	case StatusFailed:
		e.metrics.jobsFailed.Add(1)
	case StatusCanceled:
		e.metrics.jobsCanceled.Add(1)
	}
	d := time.Since(j.created)
	// Tail-based retention decides now, with the outcome known; the
	// end-to-end latency histogram then carries the retained trace ID
	// as its exemplar so a slow/error bucket links straight to a trace
	// that landed in it.
	exemplarID := e.offerTrace(j, st, d, err)
	e.metrics.jobSeconds.With(string(j.spec.Kind), string(st)).ObserveExemplar(d.Seconds(), exemplarID)
	if j.startTime().IsZero() {
		// Shed before ever running (canceled while queued or retrying,
		// e.g. at shutdown): its whole life was queue wait, which the
		// "ran" series in runJob will never record.
		e.metrics.queueSeconds.With("shed").Observe(d.Seconds())
		e.metrics.tenantQueueWait.With(j.spec.Tenant).Observe(d.Seconds())
	}
	j.endQueued() // a job canceled while queued never reached runJob
	j.endRoot(st)
	data := map[string]string{
		"attempts":    fmt.Sprintf("%d", j.attempts()),
		"duration_ms": fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)),
		"tenant":      j.spec.Tenant,
	}
	if err != nil {
		data["error"] = err.Error()
	}
	e.events.Publish(j.id, string(st), data)
	e.events.CloseJob(j.id)
	attrs := []any{
		"job_id", j.id, "kind", j.spec.Kind, "circuit", j.spec.Circuit,
		"tenant", j.spec.Tenant, "status", st, "attempts", j.attempts(),
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		e.log.Error("job finished", append(attrs, "error", err.Error())...)
		return
	}
	e.log.Info("job finished", attrs...)
}

// traceSampleRate resolves Config.TraceSample's operator conventions
// (0 = keep everything, negative = keep nothing) to a [0,1] rate.
func (e *Engine) traceSampleRate() float64 {
	r := e.cfg.TraceSample
	switch {
	case r == 0 || r > 1:
		return 1
	case r < 0:
		return 0
	}
	return r
}

// offerTrace hands a finished job's trace to the tail-retention
// buffer and returns the trace ID if it was retained ("" otherwise) —
// the exemplar the latency histograms attach.
func (e *Engine) offerTrace(j *Job, st Status, d time.Duration, err error) string {
	if j.trace == nil {
		return ""
	}
	outcome := "ok"
	switch st {
	case StatusFailed:
		outcome = "error"
	case StatusCanceled:
		outcome = "canceled"
	}
	tv := j.trace.Snapshot()
	rt := obs.RetainedTrace{
		TraceID:      j.traceID(),
		Name:         string(j.spec.Kind) + " " + j.spec.Circuit,
		JobID:        j.id,
		Outcome:      outcome,
		DurationMS:   float64(d) / float64(time.Millisecond),
		OriginUnixMS: j.created.UnixMilli(),
		Trace:        &tv,
	}
	if err != nil {
		rt.Error = err.Error()
	}
	if reason := e.traces.Offer(rt, j.traceSampled()); reason != "" {
		return rt.TraceID
	}
	return ""
}

// Traces returns the engine's tail-retention trace buffer (the store
// behind GET /v1/traces).
func (e *Engine) Traces() *obs.TraceBuffer { return e.traces }

// maxRetries resolves a job's retry budget.
func (e *Engine) maxRetries(spec Spec) int {
	if spec.MaxRetries > 0 {
		return spec.MaxRetries
	}
	return e.cfg.MaxRetries
}

func marshalSpec(spec Spec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	return b
}

// Get returns a submitted job by ID.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns snapshots of all jobs in submission order (without
// span timelines; fetch a single job for its trace).
func (e *Engine) Jobs() []JobView {
	jobs := e.jobsInOrder()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.ViewLite()
	}
	return views
}

// jobsInOrder snapshots the job pointers in submission order.
func (e *Engine) jobsInOrder() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	jobs := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		jobs = append(jobs, e.jobs[id])
	}
	return jobs
}

// JobsQuery filters and paginates a job listing.
type JobsQuery struct {
	// Status / Kind filter on the job's current status and kind; the
	// zero value matches everything.
	Status Status
	Kind   Kind
	// Limit caps the page size (<= 0 means no cap).
	Limit int
	// AfterSeq resumes after the job with this sequence number — the
	// decoded form of the page token. Submission order is sequence
	// order, so pagination is stable even as jobs keep completing.
	AfterSeq int64
}

// JobsPage returns one page of job snapshots in submission order plus
// the sequence number to resume after (0 when the listing is
// exhausted). Status filtering reflects each job's status at snapshot
// time; a job that changes status between pages may appear in neither
// or both — the listing is eventually consistent, never blocking.
func (e *Engine) JobsPage(q JobsQuery) ([]JobView, int64) {
	jobs := e.jobsInOrder()
	views := make([]JobView, 0, min(len(jobs), max(q.Limit, 0)))
	for _, j := range jobs {
		if j.seq <= q.AfterSeq {
			continue
		}
		v := j.ViewLite()
		if q.Status != "" && v.Status != q.Status {
			continue
		}
		if q.Kind != "" && v.Kind != q.Kind {
			continue
		}
		if q.Limit > 0 && len(views) == q.Limit {
			// One past the page: report where to resume.
			return views, views[len(views)-1].seq
		}
		v.seq = j.seq
		views = append(views, v)
	}
	return views, 0
}

// Wait blocks until the job reaches a terminal status or ctx expires,
// returning the job's snapshot. A job that is already terminal always
// returns immediately with a nil error, even if ctx is also done (the
// done channel wins the race).
func (e *Engine) Wait(ctx context.Context, id string) (JobView, error) {
	j, ok := e.Get(id)
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return j.View(), nil
	case <-ctx.Done():
		// Both channels may have been ready and select picks
		// arbitrarily; prefer the terminal snapshot over a spurious
		// context error.
		select {
		case <-j.done:
			return j.View(), nil
		default:
		}
		return j.View(), ctx.Err()
	}
}

// Cancel cancels a queued, retrying or running job. It reports whether
// the job existed and was still cancelable.
func (e *Engine) Cancel(id string) bool {
	j, ok := e.Get(id)
	if !ok {
		return false
	}
	if j.cancelQueued() {
		e.afterTerminal(j, StatusCanceled, context.Canceled)
		e.journalAppend(journal.Record{Op: journal.OpCanceled, JobID: j.id, Seq: j.seq})
		return true
	}
	j.mu.Lock()
	running := j.status == StatusRunning
	cancel := j.cancel
	j.mu.Unlock()
	if !running {
		return false
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Snapshot {
	s := e.metrics.snapshot(e.cache.Len())
	s.QueueDepth = e.sched.len()
	s.Overloaded = e.overloaded.Load()
	s.Tenants = e.sched.snapshot()
	return s
}

// CacheLen returns the number of cached results.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// QueueDepth returns the instantaneous run-queue occupancy across all
// tenants. Cheap enough for /healthz, which the cluster coordinator
// probes to rank backends for least-loaded spillover.
func (e *Engine) QueueDepth() int { return e.sched.len() }

// TenantDepths returns every tenant's queued-job count — the
// per-tenant queue depths served on /v1/healthz and aggregated by the
// cluster coordinator.
func (e *Engine) TenantDepths() map[string]int { return e.sched.depths() }

// Inflight returns the number of jobs currently executing.
func (e *Engine) Inflight() int { return int(e.metrics.jobsRunning.Load()) }

// Overloaded reports whether the queue has passed the shed watermark
// and not yet drained back below the low-water mark; the server's
// /healthz degrades on it.
func (e *Engine) Overloaded() bool { return e.overloaded.Load() }

// updateWatermark re-evaluates the shed state from the current queue
// depth: sheds at ShedWatermark, recovers at half of it.
func (e *Engine) updateWatermark() {
	hi := e.cfg.ShedWatermark
	if hi <= 0 {
		return
	}
	switch depth := e.sched.len(); {
	case depth >= hi:
		e.overloaded.Store(true)
	case depth <= hi/2:
		e.overloaded.Store(false)
	}
}

// Close stops accepting jobs, cancels queued, retrying and running
// ones immediately, and waits for the workers. Journaled jobs that
// were still in flight keep their live records and are replayed by
// Restore on the next start.
func (e *Engine) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Shutdown(ctx) // expired ctx: skip the drain
}

// Shutdown stops accepting jobs, sheds everything not yet running
// (canceled in memory; their journal records stay live for replay),
// and drains running jobs until ctx expires, then cancels the rest.
// It returns nil if every running job drained, ctx's error otherwise.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	jobs := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		jobs = append(jobs, e.jobs[id])
	}
	// Rewrite the journal to the jobs still in flight *before*
	// canceling anything: jobs that drain below append their terminal
	// records after this baseline, and jobs shed or interrupted keep
	// a live record to be replayed on restart.
	live := e.liveRecordsLocked()
	e.mu.Unlock()
	if log := e.cfg.Journal; log != nil {
		if err := log.Compact(live); err != nil {
			e.metrics.journalErrors.Add(1)
		} else {
			e.metrics.journalCompactions.Add(1)
		}
	}

	// Shed queued and retrying jobs in memory only — no journal
	// record, so they replay.
	for _, j := range jobs {
		if j.cancelQueued() {
			e.afterTerminal(j, StatusCanceled, context.Canceled)
		}
	}
	// Drain running jobs under the caller's deadline.
	var err error
drain:
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		}
	}
	// Hard-stop whatever remains.
	e.cancel()
	e.wg.Wait()
	for _, j := range e.sched.drain() {
		e.finish(j, StatusCanceled, nil, false, context.Canceled)
	}
	return err
}

// worker pulls jobs off the weighted-fair scheduler. A wake token
// means "dispatchable work may exist"; the worker then drains dequeue
// until the scheduler has nothing for it, re-signaling on the way so
// idle workers join while a backlog remains.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-e.sched.wake:
			for {
				j, more := e.sched.dequeue()
				if j == nil {
					break
				}
				if more {
					e.sched.signal()
				}
				e.updateWatermark()
				e.runJob(j)
				// The dispatch's inflight charge ends with the attempt
				// (terminal, retry backoff, or canceled-while-queued
				// skip); releasing may unblock a tenant at its quota.
				e.sched.release(j.spec.Tenant)
				if e.ctx.Err() != nil {
					return
				}
			}
		}
	}
}

func (e *Engine) runJob(j *Job) {
	j.mu.Lock()
	if j.status != StatusQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(e.ctx)
	timeout := j.spec.timeout()
	if timeout == 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if timeout > 0 {
		cancel()
		ctx, cancel = context.WithTimeout(e.ctx, timeout)
	}
	j.status = StatusRunning
	first := j.started.IsZero()
	if first {
		j.started = time.Now() // first attempt; retries keep the origin
	}
	j.attempt++
	attempt := j.attempt
	j.cancel = cancel
	created, started := j.created, j.started
	j.mu.Unlock()
	defer cancel()

	if first {
		j.endQueued()
		// Queue-wait exemplars use the head-sampling decision — the
		// tail verdict is not known until the job finishes.
		e.metrics.queueSeconds.With("ran").ObserveExemplar(started.Sub(created).Seconds(), j.exemplarID())
		e.metrics.tenantQueueWait.With(j.spec.Tenant).ObserveExemplar(started.Sub(created).Seconds(), j.exemplarID())
	}
	// The run context keeps the engine's cancellation but gains the
	// job's trace correlation, so every span below lands on the job
	// timeline under the root span.
	ctx = obs.Transplant(ctx, j.traceCtx)
	ctx, attSpan := obs.StartSpan(ctx, "attempt", obs.Int("attempt", attempt))
	e.events.Publish(j.id, "attempt", map[string]string{"attempt": fmt.Sprintf("%d", attempt)})
	e.log.Debug("job attempt started", "job_id", j.id, "attempt", attempt)

	e.journalAppend(journal.Record{Op: journal.OpStarted, JobID: j.id, Seq: j.seq, Attempt: attempt})
	e.metrics.jobsRunning.Add(1)
	res, hit, err := e.executeShielded(ctx, j)
	e.metrics.jobsRunning.Add(-1)
	attSpan.End(obs.Bool("cache_hit", hit), obs.Bool("ok", err == nil))
	switch {
	case err == nil:
		if e.finish(j, StatusDone, res, hit, nil) {
			e.journalAppend(journal.Record{Op: journal.OpDone, JobID: j.id, Seq: j.seq, Digest: res.CacheKey, Attempt: attempt})
		}
	case errors.Is(err, context.Canceled):
		if e.finish(j, StatusCanceled, nil, false, err) {
			// An engine-shutdown cancellation is deliberately not
			// journaled: the job stays live on disk and replays on
			// restart. A caller's cancel is final.
			if e.ctx.Err() == nil {
				e.journalAppend(journal.Record{Op: journal.OpCanceled, JobID: j.id, Seq: j.seq})
			}
		}
	default:
		e.retryOrFail(j, attempt, err)
	}
	e.maybeCompact()
}

// executeShielded runs the job pipeline under recover: a panic in any
// stage is converted to a *PanicError confined to this job, keeping
// the worker and the process alive.
func (e *Engine) executeShielded(ctx context.Context, j *Job) (res *Result, hit bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := string(debug.Stack())
			j.setPanicStack(stack)
			e.metrics.jobPanics.Add(1)
			res, hit = nil, false
			err = &PanicError{Value: fmt.Sprint(p), Stack: stack}
		}
	}()
	return e.execute(ctx, j)
}

// retryOrFail routes a failed attempt: re-queue with backoff while
// budget remains, otherwise fail terminally.
func (e *Engine) retryOrFail(j *Job, attempt int, err error) {
	if e.ctx.Err() != nil {
		// Engine shutting down: cancel in memory, keep the journal
		// record live for replay.
		e.finish(j, StatusCanceled, nil, false, context.Canceled)
		return
	}
	if attempt > j.maxRetries {
		if e.finish(j, StatusFailed, nil, false, err) {
			e.journalAppend(journal.Record{Op: journal.OpFailed, JobID: j.id, Seq: j.seq, Error: err.Error(), Attempt: attempt})
		}
		return
	}
	if !j.markRetrying(err) {
		return // a cancel won the race
	}
	e.metrics.jobsRetried.Add(1)
	e.journalAppend(journal.Record{Op: journal.OpRetrying, JobID: j.id, Seq: j.seq, Error: err.Error(), Attempt: attempt})
	delay := e.retryDelay(attempt)
	e.events.Publish(j.id, "retrying", map[string]string{
		"attempt":    fmt.Sprintf("%d", attempt),
		"error":      err.Error(),
		"backoff_ms": fmt.Sprintf("%.0f", float64(delay)/float64(time.Millisecond)),
	})
	e.log.Warn("job attempt failed, retrying", "job_id", j.id, "attempt", attempt,
		"max_retries", j.maxRetries, "error", err.Error(), "backoff_ms", float64(delay)/float64(time.Millisecond))
	j.setRetryTimer(time.AfterFunc(delay, func() { e.requeue(j) }))
}

// retryDelay returns the jittered backoff before retry number retryNum.
func (e *Engine) retryDelay(retryNum int) time.Duration {
	e.rngMu.Lock()
	d := e.cfg.RetryPolicy.Delay(retryNum, e.rng)
	e.rngMu.Unlock()
	return d
}

// requeue moves a job whose backoff expired back onto its tenant's
// queue. A full queue re-arms the backoff instead of dropping the
// job; a closed engine cancels it in memory only, leaving its journal
// record live for replay after restart.
func (e *Engine) requeue(j *Job) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.finish(j, StatusCanceled, nil, false, context.Canceled)
		return
	}
	if !j.swapStatus(StatusRetrying, StatusQueued) {
		e.mu.Unlock()
		return // canceled during backoff
	}
	if err := e.sched.enqueue(j); err != nil {
		// No room: back to the retry window, try again shortly.
		j.swapStatus(StatusQueued, StatusRetrying)
		e.mu.Unlock()
		j.setRetryTimer(time.AfterFunc(e.retryDelay(1), func() { e.requeue(j) }))
		return
	}
	e.mu.Unlock()
}

// journalAppend writes one lifecycle record, if a journal is
// configured. Append failures degrade to a metric rather than failing
// the job: the engine prefers availability over durability.
func (e *Engine) journalAppend(r journal.Record) {
	log := e.cfg.Journal
	if log == nil {
		return
	}
	if err := log.Append(r); err != nil {
		e.metrics.journalErrors.Add(1)
		e.log.Error("journal append failed", "job_id", r.JobID, "op", string(r.Op), "error", err.Error())
		return
	}
	e.metrics.journalAppends.Add(1)
}

// maybeCompact rewrites the journal down to the live jobs once enough
// records have accumulated since the last compaction.
func (e *Engine) maybeCompact() {
	log := e.cfg.Journal
	if log == nil || log.AppendedSinceCompact() < e.compactEvery {
		return
	}
	e.mu.Lock()
	if e.closed { // Shutdown owns the final compaction
		e.mu.Unlock()
		return
	}
	live := e.liveRecordsLocked()
	e.mu.Unlock()
	if err := log.Compact(live); err != nil {
		e.metrics.journalErrors.Add(1)
		e.log.Error("journal compaction failed", "live_jobs", len(live), "error", err.Error())
		return
	}
	e.metrics.journalCompactions.Add(1)
	e.log.Debug("journal compacted", "live_jobs", len(live))
}

// liveRecordsLocked rebuilds the OpSubmitted records of every
// non-terminal job, in submission order. Caller holds e.mu.
func (e *Engine) liveRecordsLocked() []journal.Record {
	var live []journal.Record
	for _, id := range e.order {
		j := e.jobs[id]
		j.mu.Lock()
		terminal := j.status.Terminal()
		j.mu.Unlock()
		if terminal {
			continue
		}
		live = append(live, journal.Record{Op: journal.OpSubmitted, JobID: j.id, Seq: j.seq, Tenant: j.spec.Tenant, Spec: marshalSpec(j.spec)})
	}
	return live
}

// Restore re-enqueues the live jobs of a replayed journal (the record
// slice returned by journal.Open): jobs that were queued, running or
// waiting out a retry backoff when the previous process died are
// re-run from their journaled Spec under their original IDs. The ID
// counter advances past every journaled sequence number so restored
// and new jobs never collide. Call Restore once, before serving
// traffic; it reports how many jobs were re-enqueued. Records whose
// Spec no longer validates are skipped (counted as journal errors),
// not fatal.
func (e *Engine) Restore(recs []journal.Record) (int, error) {
	if maxSeq := journal.MaxSeq(recs); maxSeq > 0 {
		e.mu.Lock()
		if e.seq < maxSeq {
			e.seq = maxSeq
		}
		e.mu.Unlock()
	}
	n := 0
	for _, r := range journal.Live(recs) {
		var spec Spec
		if err := json.Unmarshal(r.Spec, &spec); err != nil {
			e.metrics.journalErrors.Add(1)
			continue
		}
		spec, err := spec.normalized()
		if err != nil {
			e.metrics.journalErrors.Add(1)
			continue
		}
		j := &Job{
			id:         r.JobID,
			seq:        r.Seq,
			spec:       spec,
			maxRetries: e.maxRetries(spec),
			status:     StatusQueued,
			created:    time.Now(),
			done:       make(chan struct{}),
		}
		j.initTrace(e.cfg.TraceSpanLimit, obs.TraceContext{}, e.traceSampleRate(),
			obs.String("job_id", j.id),
			obs.String("kind", string(spec.Kind)),
			obs.String("circuit", spec.Circuit),
			obs.String("tenant", spec.Tenant),
			obs.Bool("replayed", true))
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return n, ErrClosed
		}
		if _, dup := e.jobs[j.id]; dup {
			e.mu.Unlock()
			continue
		}
		err = e.sched.enqueue(j)
		if errors.Is(err, ErrUnknownTenant) {
			// The tenant roster changed across the restart; don't lose
			// the job — rehome it on the default tenant.
			j.spec.Tenant = DefaultTenant
			spec.Tenant = DefaultTenant
			err = e.sched.enqueue(j)
		}
		if err != nil {
			e.mu.Unlock()
			return n, fmt.Errorf("%w: journal replay overflowed the queue after %d jobs", ErrBusy, n)
		}
		e.metrics.jobsSubmitted.Add(1)
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
		e.mu.Unlock()
		e.events.Publish(j.id, "queued", map[string]string{
			"kind": string(spec.Kind), "circuit": spec.Circuit,
			"tenant": spec.Tenant, "priority": spec.Priority, "replayed": "true",
		})
		n++
	}
	return n, nil
}

// stage is one timed pipeline stage of a job: prepare, generation
// (dynamic compaction) or simulation. Its span and its record share
// one name, one start and one end time.
type stage struct {
	e     *Engine
	j     *Job
	name  string
	start time.Time
	span  *obs.Span // nil past the trace's span cap
}

// startStage opens the span of stage name and starts its clock.
func (e *Engine) startStage(ctx context.Context, j *Job, name string, attrs ...obs.Attr) (context.Context, *stage) {
	st := &stage{e: e, j: j, name: name, start: time.Now()}
	ctx, st.span = obs.StartSpanAt(ctx, name, st.start, attrs...)
	return ctx, st
}

// fail ends the span of a stage that did not complete; the stage is
// not recorded.
func (st *stage) fail() { st.span.End() }

// done ends the span with attrs and records the completed stage —
// with or without a span — in pdfd_stage_duration_seconds, the
// journal (one OpStage record) and the job's event stream.
func (st *stage) done(attrs ...obs.Attr) {
	end := time.Now()
	st.span.EndAt(end, attrs...)
	d := end.Sub(st.start)
	e, j := st.e, st.j
	e.metrics.stageSeconds.With(st.name).ObserveExemplar(d.Seconds(), j.exemplarID())
	e.journalAppend(journal.Record{Op: journal.OpStage, JobID: j.id, Seq: j.seq, Stage: st.name})
	e.events.Publish(j.id, "stage", map[string]string{
		"stage":       st.name,
		"duration_ms": fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)),
	})
}

// execute runs one job through the load → cache → prepare → run →
// store pipeline; a cache hit returns before prepare. It never stores
// a result for a canceled or failed run.
func (e *Engine) execute(ctx context.Context, j *Job) (*Result, bool, error) {
	spec := j.spec
	if err := e.inject(ctx, SitePrepare, j.id); err != nil {
		return nil, false, err
	}
	// Stage 1: load the circuit; digest it and the spec into the key.
	_, lspan := obs.StartSpan(ctx, "load", obs.String("circuit", spec.Circuit))
	c := spec.Circ
	if c == nil {
		var err error
		if c, err = experiments.LoadCircuit(spec.Circuit); err != nil {
			lspan.End()
			return nil, false, err
		}
	}
	circuitHash := CircuitDigest(c)
	key := cacheKey(circuitHash, SpecDigest(spec))
	lspan.End()

	// Stage 2: memory LRU, then read through the durable store.
	if !spec.NoCache {
		_, lookup := obs.StartSpan(ctx, "cache_lookup")
		res, ok := e.cache.Get(key)
		if !ok {
			res, ok = e.storeGet(key, len(c.PIs))
		}
		lookup.End(obs.Bool("hit", ok))
		if ok {
			e.metrics.cacheHits.Add(1)
			return res, true, nil
		}
		e.metrics.cacheMisses.Add(1)
	}

	// Stage 3: prepare — enumerate, screen and partition the fault sets.
	prepCtx, prep := e.startStage(ctx, j, "prepare")
	d, err := experiments.PrepareCircuitCtx(prepCtx, c, experiments.Params{NP: spec.NP, NP0: spec.NP0, Seed: spec.Seed})
	if err != nil {
		prep.fail()
		return nil, false, err
	}
	p0, p1 := d.P0, d.P1
	if spec.Collapse {
		_, cspan := obs.StartSpan(prepCtx, "collapse",
			obs.Int("p0_before", len(p0)), obs.Int("p1_before", len(p1)))
		p0 = collapseSet(p0)
		p1 = collapseSet(p1)
		cspan.End(obs.Int("p0_after", len(p0)), obs.Int("p1_after", len(p1)))
	}
	prep.done(obs.Int("p0", len(p0)), obs.Int("p1", len(p1)))
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	res := &Result{
		Kind:        spec.Kind,
		Circuit:     c.Name,
		CircuitHash: circuitHash,
		FaultDigest: faultSetDigest(p0, p1),
		CacheKey:    key,
		Enumerated:  d.Enumerated,
		Eliminated:  d.Eliminated,
		I0:          d.I0,
		P0Size:      len(d.P0),
		P1Size:      len(d.P1),
		P0Targets:   len(p0),
		P1Targets:   len(p1),
	}
	h, err := core.ParseHeuristic(spec.Heuristic)
	if err != nil {
		return nil, false, err
	}
	cfg := core.Config{Heuristic: h, Seed: spec.Seed, UseBnB: spec.UseBnB}

	// Stage 4: run the procedure.
	if err := e.inject(ctx, SiteRun, j.id); err != nil {
		return nil, false, err
	}
	switch spec.Kind {
	case KindGenerate:
		genCtx, gen := e.startStage(ctx, j, "generation",
			obs.String("heuristic", spec.Heuristic), obs.Int("targets", len(p0)))
		gres, err := core.GenerateCtx(genCtx, c, p0, cfg)
		if err != nil {
			gen.fail()
			return nil, false, err
		}
		res.TestPatterns = gres.Tests
		res.PrimaryAborts = gres.PrimaryAborts
		res.P0Detected = gres.DetectedCount
		e.metrics.observeATPG(gres.JustifyStats, gres.SecondaryAcceptsBySet, gres.SecondaryRejectsBySet, gres.RegenPerTest)
		gen.done(obs.Int("tests", len(gres.Tests)), obs.Int("aborts", gres.PrimaryAborts))
		all := d.All()
		res.AllTotal = len(all)
		simCtx, sim := e.startStage(ctx, j, "simulation",
			obs.Int("tests", len(gres.Tests)), obs.Int("faults", len(all)))
		first, err := bitsim.RunContext(simCtx, c, gres.Tests, all)
		if err != nil {
			sim.fail()
			return nil, false, err
		}
		res.AllDetected = bitsim.Detected(first)
		sim.done(obs.Int("detected", res.AllDetected))
	case KindEnrich:
		genCtx, gen := e.startStage(ctx, j, "generation",
			obs.String("heuristic", spec.Heuristic),
			obs.Int("p0_targets", len(p0)), obs.Int("p1_targets", len(p1)))
		er, err := core.EnrichCtx(genCtx, c, p0, p1, cfg)
		if err != nil {
			gen.fail()
			return nil, false, err
		}
		res.TestPatterns = er.Tests
		res.PrimaryAborts = er.PrimaryAborts
		res.P0Detected = er.DetectedP0Count
		res.P1Detected = er.DetectedP1Count
		res.AllTotal = len(p0) + len(p1)
		res.AllDetected = er.DetectedCount
		e.metrics.observeATPG(er.JustifyStats, er.SecondaryAcceptsBySet, er.SecondaryRejectsBySet, er.RegenPerTest)
		gen.done(obs.Int("tests", len(er.Tests)), obs.Int("aborts", er.PrimaryAborts))
	case KindFaultSim:
		tests, err := testio.ReadTests(strings.NewReader(strings.Join(spec.Tests, "\n")), len(c.PIs))
		if err != nil {
			return nil, false, err
		}
		all := d.All()
		simCtx, sim := e.startStage(ctx, j, "simulation",
			obs.Int("tests", len(tests)), obs.Int("faults", len(all)))
		first, err := bitsim.RunContext(simCtx, c, tests, all)
		if err != nil {
			sim.fail()
			return nil, false, err
		}
		res.TestPatterns = tests
		res.FirstDetect = first
		res.AllTotal = len(all)
		res.Detected = bitsim.Detected(first)
		sim.done(obs.Int("detected", res.Detected))
	}
	res.Tests = make([]string, len(res.TestPatterns))
	for i, tp := range res.TestPatterns {
		res.Tests[i] = tp.String()
	}
	res.TestCount = len(res.Tests)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	// Stage 5: store. Only complete, uncanceled results reach here.
	if err := e.inject(ctx, SiteStore, j.id); err != nil {
		return nil, false, err
	}
	if !spec.NoCache {
		e.cache.Put(key, res)
		e.metrics.cachePuts.Add(1)
		e.storePut(key, res)
	}
	if err := e.inject(ctx, SiteDone, j.id); err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// collapseSet removes subsumed faults from a target set.
func collapseSet(fcs []robust.FaultConditions) []robust.FaultConditions {
	reps, subsumed := robust.Collapse(fcs)
	if len(subsumed) == 0 {
		return fcs
	}
	out := make([]robust.FaultConditions, len(reps))
	for i, r := range reps {
		out[i] = fcs[r]
	}
	return out
}

// RunJob is a synchronous convenience for programmatic callers: submit
// and wait under ctx, returning the terminal snapshot. The job keeps
// running if ctx expires first; cancel it explicitly for that case.
func (e *Engine) RunJob(ctx context.Context, spec Spec) (JobView, error) {
	j, err := e.SubmitCtx(ctx, spec)
	if err != nil {
		return JobView{}, err
	}
	return e.Wait(ctx, j.ID())
}
