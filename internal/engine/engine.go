package engine

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/obs"
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

// PanicError is a panic captured from a job's run by the engine's
// per-job recover. It is confined to the job, which ends failed: the
// worker goroutine, the other jobs and the process survive.
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

	// ShedWatermark is the queue depth at which the engine starts
	// shedding new submissions with ErrOverloaded, before the queue
	// is hard-full (ErrBusy at QueueDepth). Shedding stops once the
	// queue drains to half the watermark (hysteresis). 0 disables
	// shedding.
	ShedWatermark int

	// Journal, when set, receives each job's submitted record and its
	// terminal record as durable WAL records; Restore replays a
	// reopened journal after a crash. Engine-shutdown cancellations
	// are deliberately not journaled, so interrupted jobs stay live on
	// disk and re-run on restart. nil disables journaling.
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

	// Injector, when set, is invoked as each Stage opens; the chaos
	// tests use it to inject panics, latency and simulated crashes.
	// nil disables injection.
	Injector FaultInjector

	// Logger receives the engine's structured job-lifecycle records
	// (submit, start, finish, journal health), each correlated
	// by job_id. nil discards them.
	Logger *slog.Logger
}

// Engine runs jobs on a bounded worker pool. Create with New, release
// with Close (or Shutdown for a graceful drain).
type Engine struct {
	cfg          Config
	metrics      *Metrics
	cache        *lru[*Result]
	prepared     *lru[*preparedSets] // fault-set shape → prepared sets
	circuits     *lru[loadedCircuit] // circuit name → circuit and digest
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

	mu     sync.Mutex
	closed bool
	seq    int64
	// jobs is the job table: every live job and the last
	// retainFinished jobs to end. live is its non-terminal part, and
	// tail rings the finished part in ending order, tail[next] the
	// oldest.
	jobs map[string]*Job
	live map[string]*Job
	tail [retainFinished]*Job
	next int
}

// retainFinished is how many finished jobs the job table keeps. A job
// leaves it once this many jobs have ended after it, taking its event
// stream and trace with it; its result stays reachable by cache key
// and in the store.
const retainFinished = 1024

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
		cache:        newLRU[*Result](cfg.CacheSize),
		prepared:     newLRU[*preparedSets](preparedMemoSize),
		circuits:     newLRU[loadedCircuit](circuitMemoSize),
		compactEvery: compactEvery,
		log:          logger,
		ctx:          ctx,
		cancel:       cancel,
		sched:        newSched(cfg, m),
		jobs:         make(map[string]*Job),
		live:         make(map[string]*Job),
		events:       events.NewBus(jobEvents),
		traces:       obs.NewTraceBuffer(obs.DefaultTraceBufferCount, obs.DefaultTraceBufferBytes),
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

// Events returns the engine's job lifecycle event bus: the counters of
// every job's event stream. Each job publishes queued, stage and
// terminal (done/failed/canceled) events on a stream of its own,
// which the server's SSE endpoint subscribes to.
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
			e.shed(spec, "overloaded")
			return nil, ErrOverloaded
		}
	}
	remote, _ := obs.TraceContextFrom(ctx)
	j, err := e.admit(spec, remote, nil)
	if err != nil {
		switch {
		case errors.Is(err, ErrQuotaExceeded):
			e.shed(spec, "quota")
		case errors.Is(err, ErrBusy):
			e.shed(spec, "queue_full")
		}
		return nil, err
	}
	// Journaled outside the lock: the fsync must not serialize
	// submissions. A worker may journal this job's terminal record
	// first; replay is order-insensitive. The spec (every test string
	// of a faultsim job) is marshaled only when there is a journal.
	if e.cfg.Journal != nil {
		e.journalAppend(journal.Record{Op: journal.OpSubmitted, JobID: j.id, Seq: j.seq, Spec: marshalSpec(spec)})
	}
	return j, nil
}

// shed records one submission shed at submit time for reason
// (overloaded, quota or queue_full): pdfd_jobs_shed_total, the
// tenant's pdfd_tenant_shed_total row while the scheduler holds the
// tenant (sched.shed), and one "job shed" warning.
func (e *Engine) shed(spec Spec, reason string) {
	e.metrics.jobsShed.Add(1)
	e.sched.shed(spec.Tenant, reason)
	e.log.Warn("job shed", "kind", spec.Kind, "circuit", spec.Circuit, "tenant", spec.Tenant,
		"reason", reason, "queue_depth", e.sched.len())
}

// admit builds a queued job for a normalized spec, registers it and
// enqueues it on its tenant's queue: the one admission path of
// SubmitCtx and Restore. A new submission (replay == nil) takes the
// next ID from the engine's counter. A replayed one keeps its
// journaled ID and seq, is skipped (nil job, nil error) when a job of
// that ID is already registered, and moves to the default tenant when
// its own is no longer configured.
//
// Registration and enqueue share one critical section: a rejected job
// leaves no trace in the job table, and a job never lands in a tenant
// queue after Close (which flips closed under the same mutex) has
// started draining. jobsSubmitted is bumped before the enqueue so the
// derived queued gauge never goes negative if a worker finishes the
// job immediately, and rolled back if the enqueue fails.
func (e *Engine) admit(spec Spec, remote obs.TraceContext, replay *journal.Record) (*Job, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	var id string
	var seq int64
	if replay == nil {
		e.seq++
		id, seq = fmt.Sprintf("j%d", e.seq), e.seq
	} else {
		if _, dup := e.jobs[replay.JobID]; dup {
			e.mu.Unlock()
			return nil, nil
		}
		id, seq = replay.JobID, replay.Seq
	}
	j := &Job{
		id:     id,
		seq:    seq,
		spec:   spec,
		status: StatusQueued,
		stream: e.events.NewStream(id),
		done:   make(chan struct{}),
	}
	// Hold j.mu until the queued event is out: runJob takes it first,
	// so a job dispatched at once cannot publish a stage event before
	// its queued event.
	j.mu.Lock()
	defer j.mu.Unlock()
	attrs := []obs.Attr{
		obs.String("job_id", id),
		obs.String("kind", string(spec.Kind)),
		obs.String("circuit", spec.Circuit),
		obs.String("tenant", spec.Tenant),
		obs.String("priority", spec.Priority),
	}
	if replay != nil {
		attrs = append(attrs, obs.Bool("replayed", true))
	}
	j.initTrace(remote, attrs...)
	e.metrics.jobsSubmitted.Add(1)
	err := e.sched.enqueue(j)
	if replay != nil && errors.Is(err, ErrUnknownTenant) {
		// The tenant roster changed across the restart; don't lose
		// the job — rehome it on the default tenant.
		j.spec.Tenant = DefaultTenant
		err = e.sched.enqueue(j)
	}
	if err != nil {
		e.metrics.jobsSubmitted.Add(-1)
		if replay == nil {
			e.seq--
		}
		e.mu.Unlock()
		return nil, err
	}
	e.jobs[j.id] = j
	e.live[j.id] = j
	e.mu.Unlock()
	data := map[string]string{
		"kind": string(spec.Kind), "circuit": spec.Circuit,
		"tenant": j.spec.Tenant, "priority": spec.Priority,
	}
	if replay != nil {
		data["replayed"] = "true"
	}
	j.stream.Publish("queued", data)
	e.updateWatermark()
	e.log.Debug("job submitted", "job_id", j.id, "kind", spec.Kind, "circuit", spec.Circuit,
		"tenant", j.spec.Tenant, "priority", spec.Priority, "replayed", replay != nil)
	return j, nil
}

// errShutdown is the error of a job that an engine shutdown canceled.
// It reads and matches as context.Canceled, but end journals no
// terminal record for it: the job stays live on disk and replays on
// restart.
var errShutdown = fmt.Errorf("%w", context.Canceled)

// end is the one way a job ends. It makes the transition through
// Job.end (see there for waiting) and, when this call won it, retires
// the job to the table's finished tail, records the status counter,
// the root span (closed before its trace is offered for retention),
// the end-to-end latency histogram and a log record, all timed by the
// finish instant Job.end recorded, and publishes the terminal event;
// then it wakes the job's waiters, so a client that scrapes right
// after Done sees the job in every counter and histogram. The terminal journal record comes last, its
// fsync outside the waiters' latency. Every ending journals one except
// a cancellation by an engine shutdown (errShutdown). It reports
// whether this call ended the job.
func (e *Engine) end(j *Job, waiting bool, st Status, res *Result, hit bool, err error) bool {
	finished, ok := j.end(waiting, st, res, hit, err)
	if !ok {
		return false
	}
	e.retire(j)
	switch st {
	case StatusDone:
		e.metrics.jobsDone.Add(1)
		e.metrics.tenantDone.With(j.spec.Tenant).Add(1)
	case StatusFailed:
		e.metrics.jobsFailed.Add(1)
	case StatusCanceled:
		e.metrics.jobsCanceled.Add(1)
	}
	d := finished.Sub(j.created)
	j.endQueued(finished) // a job canceled while queued never reached runJob
	j.endRoot(st, finished)
	// Tail-based retention decides now, with the outcome known; the
	// end-to-end latency histogram then carries the retained trace ID
	// as its exemplar so a slow/error bucket links straight to a trace
	// that landed in it.
	exemplarID := e.offerTrace(j, st, d, err)
	e.metrics.jobSeconds.With(string(j.spec.Kind), string(st)).ObserveExemplar(d.Seconds(), exemplarID)
	if j.startTime().IsZero() {
		// Shed before ever running (canceled while queued, e.g. at
		// shutdown): its whole life was queue wait, which the
		// "ran" series in runJob will never record.
		e.metrics.queueSeconds.With("shed").Observe(d.Seconds())
		e.metrics.tenantQueueWait.With(j.spec.Tenant).Observe(d.Seconds())
	}
	data := map[string]string{
		"duration_ms": fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)),
		"tenant":      j.spec.Tenant,
	}
	if err != nil {
		data["error"] = err.Error()
	}
	if res != nil {
		// A done event names the result's key, so a watcher can copy
		// the result by key without reading the job.
		data["cache_key"] = res.CacheKey
	}
	j.stream.Publish(string(st), data)
	j.stream.Close()
	attrs := []any{
		"job_id", j.id, "kind", j.spec.Kind, "circuit", j.spec.Circuit,
		"tenant", j.spec.Tenant, "status", st,
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		e.log.Error("job finished", append(attrs, "error", err.Error())...)
	} else {
		e.log.Info("job finished", attrs...)
	}
	j.wake()
	if !errors.Is(err, errShutdown) {
		// The terminal statuses and journal ops share their names.
		rec := journal.Record{Op: journal.Op(st), JobID: j.id, Seq: j.seq}
		if res != nil {
			rec.Digest = res.CacheKey
		}
		e.journalAppend(rec)
	}
	return true
}

// retire moves an ended job from the live set to the finished tail,
// evicting from the job table the job that ended retainFinished
// endings before it.
func (e *Engine) retire(j *Job) {
	e.mu.Lock()
	delete(e.live, j.id)
	if old := e.tail[e.next]; old != nil {
		delete(e.jobs, old.id)
	}
	e.tail[e.next] = j
	e.next = (e.next + 1) % retainFinished
	e.mu.Unlock()
}

// bySeq returns the jobs of m past seq after, in submission order.
// Caller holds e.mu.
func bySeq(m map[string]*Job, after int64) []*Job {
	var jobs []*Job
	for _, j := range m {
		if j.seq > after {
			jobs = append(jobs, j)
		}
	}
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	return jobs
}

// offerTrace hands a finished job's trace to the tail-retention
// buffer and returns the trace ID if it was retained ("" otherwise) —
// the exemplar the latency histograms attach.
func (e *Engine) offerTrace(j *Job, st Status, d time.Duration, err error) string {
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

func marshalSpec(spec Spec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	return b
}

// Get returns a job of the job table by ID: a live job or one of the
// last retainFinished to finish.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
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

// JobsPage returns one page of snapshots of the job table's jobs in
// submission order plus the sequence number to resume after (0 when
// the listing is exhausted). Status filtering reflects each job's
// status at snapshot time; a job that changes status between pages may appear in neither
// or both — the listing is eventually consistent, never blocking.
func (e *Engine) JobsPage(q JobsQuery) ([]JobView, int64) {
	e.mu.Lock()
	jobs := bySeq(e.jobs, q.AfterSeq)
	e.mu.Unlock()
	views := make([]JobView, 0, min(len(jobs), max(q.Limit, 0)))
	for _, j := range jobs {
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
	return wait(ctx, j)
}

// wait is Wait on a job the caller holds.
func wait(ctx context.Context, j *Job) (JobView, error) {
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

// Cancel cancels a queued or running job. It reports whether
// the job existed and was still cancelable.
func (e *Engine) Cancel(id string) bool {
	j, ok := e.Get(id)
	if !ok {
		return false
	}
	if e.end(j, true, StatusCanceled, nil, false, context.Canceled) {
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

// Close stops accepting jobs, cancels queued and running ones
// immediately, and waits for the workers. Journaled jobs that
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
	jobs := bySeq(e.live, 0)
	// Rewrite the journal to the jobs still in flight *before*
	// canceling anything: jobs that drain below append their terminal
	// records after this baseline, and jobs shed or interrupted keep
	// a live record to be replayed on restart.
	e.mu.Unlock()
	if log := e.cfg.Journal; log != nil {
		e.compactJournal(log, jobs)
	}

	// Shed queued jobs; as shutdown cancellations they keep their live
	// records and replay.
	for _, j := range jobs {
		e.end(j, true, StatusCanceled, nil, false, errShutdown)
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
		e.end(j, true, StatusCanceled, nil, false, errShutdown)
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
				// The dispatch's inflight charge ends with the run (or
				// the canceled-while-queued skip); releasing may unblock
				// a tenant at its quota.
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
	started := time.Now()
	j.status, j.started, j.cancel = StatusRunning, started, cancel
	j.mu.Unlock()
	defer cancel()

	j.endQueued(started)
	queued := started.Sub(j.created).Seconds()
	// Queue-wait exemplars use the head-sampling decision — the tail
	// verdict is not known until the job finishes.
	e.metrics.queueSeconds.With("ran").ObserveExemplar(queued, j.exemplarID())
	e.metrics.tenantQueueWait.With(j.spec.Tenant).ObserveExemplar(queued, j.exemplarID())
	// The run context keeps the engine's cancellation but gains the
	// job's trace correlation, so every stage's span hangs from the
	// root "job" span.
	ctx = obs.Transplant(ctx, j.traceCtx)
	e.log.Debug("job started", "job_id", j.id)

	e.metrics.jobsRunning.Add(1)
	res, hit, err := e.executeShielded(ctx, j)
	e.metrics.jobsRunning.Add(-1)
	switch {
	case err == nil:
		e.end(j, false, StatusDone, res, hit, nil)
	case e.ctx.Err() != nil:
		// The engine is shutting down, which is what failed the run.
		e.end(j, false, StatusCanceled, nil, false, errShutdown)
	case errors.Is(err, context.Canceled):
		e.end(j, false, StatusCanceled, nil, false, err) // the caller's cancel
	default:
		e.end(j, false, StatusFailed, nil, false, err)
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

// journalAppend writes one submitted or terminal record, if a journal
// is configured. Append failures degrade to a metric rather than
// failing the job: the engine prefers availability over durability.
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
	live := bySeq(e.live, 0)
	e.mu.Unlock()
	e.compactJournal(log, live)
}

// compactJournal rewrites the journal to the submitted records of the
// live jobs, counting and logging the outcome; a failure leaves the
// old log in place.
func (e *Engine) compactJournal(log *journal.Log, jobs []*Job) {
	live := make([]journal.Record, len(jobs))
	for i, j := range jobs {
		live[i] = journal.Record{Op: journal.OpSubmitted, JobID: j.id, Seq: j.seq, Spec: marshalSpec(j.spec)}
	}
	if err := log.Compact(live); err != nil {
		e.metrics.journalErrors.Add(1)
		e.log.Error("journal compaction failed", "live_jobs", len(live), "error", err.Error())
		return
	}
	e.metrics.journalCompactions.Add(1)
	e.log.Debug("journal compacted", "live_jobs", len(live))
}

// Restore re-enqueues the live jobs of a replayed journal (the record
// slice returned by journal.Open): jobs that were queued or running
// when the previous process died are re-run from their journaled Spec
// under their original IDs. The ID counter advances past every
// journaled sequence number so restored and new jobs never collide.
// Call Restore once, before serving traffic; it reports how many jobs
// were re-enqueued. Records whose Spec no longer validates are skipped
// (counted as journal errors), not fatal. Replayed jobs are admitted
// like submissions (see admit), without the shed check and without a
// second journal record.
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
		j, err := e.admit(spec, obs.TraceContext{}, &r)
		switch {
		case errors.Is(err, ErrClosed):
			return n, err
		case err != nil:
			return n, fmt.Errorf("%w: journal replay overflowed the queue after %d jobs", ErrBusy, n)
		case j != nil:
			n++
		}
	}
	return n, nil
}

// Stage names one stage of the job pipeline. The name is the stage's
// span, its pdfd_stage_duration_seconds label, the "stage" of its SSE
// stage event and the point at which the FaultInjector is called.
type Stage string

// The stages, in pipeline order. A cache hit ends after cache_lookup;
// a no_cache job has no cache_lookup and no store.
const (
	StageLoad        Stage = "load"         // the circuit, and the cache key
	StageCacheLookup Stage = "cache_lookup" // the memory LRU, then the durable store
	StagePrepare     Stage = "prepare"      // the fault sets, or their memo entry
	StageGeneration  Stage = "generation"   // generate or enrich
	StageSimulation  Stage = "simulation"   // grading on P0 ∪ P1 (not enrich without collapse)
	StageStore       Stage = "store"        // the memory put, and the durable store's write
)

// jobEvents bounds one job's event stream: queued, one stage event per
// Stage, and the terminal event. It sizes each stream's history and
// each SSE subscriber's buffer, so neither ever drops an event.
const jobEvents = 8

// FaultInjector is called as each stage opens, before its span and
// clock start; an error fails the job there. It is a configuration
// hook, not a build tag, so the chaos tests run in the ordinary
// `go test -race` binary, where it panics, sleeps or blocks until ctx
// (the job's run context) ends. Implementations must be safe for
// concurrent use.
type FaultInjector interface {
	Inject(ctx context.Context, stage Stage, jobID string) error
}

// InjectorFunc adapts a function to FaultInjector.
type InjectorFunc func(ctx context.Context, stage Stage, jobID string) error

// Inject implements FaultInjector.
func (f InjectorFunc) Inject(ctx context.Context, stage Stage, jobID string) error {
	return f(ctx, stage, jobID)
}

// stage is one timed stage of a job. Its span and its record share
// one name, one start and one end time.
type stage struct {
	e     *Engine
	j     *Job
	name  Stage
	start time.Time
	span  *obs.Span // nil past the trace's span cap
}

// startStage calls the FaultInjector at stage name, then opens the
// stage's span and starts its clock. An injector error is returned
// before anything opens.
func (e *Engine) startStage(ctx context.Context, j *Job, name Stage, attrs ...obs.Attr) (context.Context, *stage, error) {
	if inj := e.cfg.Injector; inj != nil {
		if err := inj.Inject(ctx, name, j.id); err != nil {
			return ctx, nil, err
		}
	}
	st := &stage{e: e, j: j, name: name, start: time.Now()}
	ctx, st.span = obs.StartSpanAt(ctx, string(name), st.start, attrs...)
	return ctx, st, nil
}

// fail ends the span of a stage that did not complete; the stage is
// not recorded.
func (st *stage) fail() { st.span.End() }

// done ends the span with attrs and records the completed stage —
// with or without a span — in pdfd_stage_duration_seconds and the
// job's event stream.
func (st *stage) done(attrs ...obs.Attr) {
	end := time.Now()
	st.span.EndAt(end, attrs...)
	d := end.Sub(st.start)
	e, j := st.e, st.j
	e.metrics.stageSeconds.With(string(st.name)).ObserveExemplar(d.Seconds(), j.exemplarID())
	j.stream.Publish("stage", map[string]string{
		"stage":       string(st.name),
		"duration_ms": fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)),
	})
}

// execute runs one job through the load → cache_lookup → prepare →
// generation → simulation → store pipeline; a cache hit returns after
// cache_lookup. It never stores a result for a canceled or failed run.
func (e *Engine) execute(ctx context.Context, j *Job) (*Result, bool, error) {
	spec := j.spec
	// Stage 1: load the circuit; digest it and the spec into the key.
	_, load, err := e.startStage(ctx, j, StageLoad, obs.String("circuit", spec.Circuit))
	if err != nil {
		return nil, false, err
	}
	lc, hit, err := e.loadCircuit(spec)
	if err != nil {
		load.fail()
		return nil, false, err
	}
	c, circuitHash := lc.c, lc.digest
	key := cacheKey(circuitHash, SpecDigest(spec))
	load.done(obs.String("memo", memoResult(hit)))

	// Stage 2: memory LRU, then read through the durable store.
	if !spec.NoCache {
		_, lookup, err := e.startStage(ctx, j, StageCacheLookup)
		if err != nil {
			return nil, false, err
		}
		res, ok := e.cache.Get(key)
		if !ok {
			res, ok = e.storeGet(key, len(c.PIs))
		}
		lookup.done(obs.Bool("hit", ok))
		if ok {
			e.metrics.cacheHits.Add(1)
			return res, true, nil
		}
		e.metrics.cacheMisses.Add(1)
	}

	// Stage 3: prepare.
	prepCtx, prep, err := e.startStage(ctx, j, StagePrepare)
	if err != nil {
		return nil, false, err
	}
	ps, hit, err := e.prepare(prepCtx, c, circuitHash, spec)
	if err != nil {
		prep.fail()
		return nil, false, err
	}
	p0, p1 := ps.p0, ps.p1
	memo := memoResult(hit)
	e.metrics.prepareMemo.With(memo).Add(1)
	prep.done(obs.Int("p0", len(p0)), obs.Int("p1", len(p1)), obs.String("memo", memo))
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	res := &Result{
		Kind:        spec.Kind,
		Circuit:     c.Name,
		CircuitHash: circuitHash,
		FaultDigest: ps.faultDigest,
		CacheKey:    key,
		Enumerated:  ps.enumerated,
		Eliminated:  ps.eliminated,
		I0:          ps.i0,
		P0Size:      ps.p0Size,
		P1Size:      ps.p1Size,
		P0Targets:   len(p0),
		P1Targets:   len(p1),
	}
	h, err := core.ParseHeuristic(spec.Heuristic)
	if err != nil {
		return nil, false, err
	}
	cfg := core.Config{Heuristic: h, Seed: spec.Seed, UseBnB: spec.UseBnB}

	// Stage 4: run the procedure. The parsed tests stay local, so they
	// are garbage once the job ends: the result keeps only their wire
	// strings.
	var tests []circuit.TwoPattern
	if spec.Kind != KindFaultSim {
		genCtx, gen, err := e.startStage(ctx, j, StageGeneration, obs.String("heuristic", spec.Heuristic))
		if err != nil {
			return nil, false, err
		}
		// Both calls return their partial result with an error.
		var out *core.Result
		if spec.Kind == KindGenerate {
			out, err = core.GenerateCtx(genCtx, c, p0, cfg)
			res.P0Detected = out.DetectedCount
		} else {
			var er *core.EnrichResult
			er, err = core.EnrichCtx(genCtx, c, p0, p1, cfg)
			out = &er.Result
			res.P0Detected, res.P1Detected = er.DetectedP0Count, er.DetectedP1Count
			res.AllTotal, res.AllDetected = len(p0)+len(p1), er.DetectedCount
		}
		if err != nil {
			gen.fail()
			return nil, false, err
		}
		res.PrimaryAborts = out.PrimaryAborts
		e.metrics.observeATPG(&out.Work)
		attrs := []obs.Attr{obs.Int("tests", len(out.Tests))}
		out.Counts(func(name string, n int) { attrs = append(attrs, obs.Int(name, n)) })
		gen.done(attrs...)
		tests = out.Tests
		res.Tests = make([]string, len(tests))
		for i, tp := range tests {
			res.Tests[i] = tp.String()
		}
	}
	// Generate and faultsim jobs grade their tests on P0 ∪ P1. So does
	// an enrich job whose targets were collapsed: core counted only
	// the collapsed sets. A faultsim job's submitted lines are parsed
	// inside the stage.
	if spec.Kind != KindEnrich || spec.Collapse {
		ntests := len(tests)
		if spec.Kind == KindFaultSim {
			ntests = len(spec.Tests)
		}
		simCtx, sim, err := e.startStage(ctx, j, StageSimulation,
			obs.Int("tests", ntests), obs.Int("faults", len(ps.all)))
		if err != nil {
			return nil, false, err
		}
		if spec.Kind == KindFaultSim {
			tests, res.Tests, err = testio.ParseTests(spec.Tests, len(c.PIs))
			if err != nil {
				sim.fail()
				return nil, false, err
			}
			// Echo each canonical submitted line; render the others.
			// When every line is canonical, res.Tests is spec.Tests
			// itself and has no "" slot, so the submitted lines are
			// never written.
			for i, t := range res.Tests {
				if t == "" {
					res.Tests[i] = tests[i].String()
				}
			}
		}
		first, err := ps.program(c).Run(simCtx, tests)
		if err != nil {
			sim.fail()
			return nil, false, err
		}
		n := bitsim.Detected(first)
		res.AllTotal = len(ps.all)
		if spec.Kind == KindFaultSim {
			res.FirstDetect, res.Detected = first, n
		} else {
			res.AllDetected = n
		}
		sim.done(obs.Int("detected", n))
	}
	res.TestCount = len(res.Tests)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	// Stage 5: store. Only complete, uncanceled results reach here.
	if !spec.NoCache {
		_, put, err := e.startStage(ctx, j, StageStore)
		if err != nil {
			return nil, false, err
		}
		e.cache.Put(key, res)
		e.metrics.cachePuts.Add(1)
		e.storePut(key, res)
		put.done()
	}
	return res, false, nil
}

// memoResult is a memo lookup's outcome as a span attribute and
// metric label value.
func memoResult(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// circuitMemoSize bounds the circuit memo. An entry is one built
// circuit, and a server runs few at a time.
const circuitMemoSize = 16

// loadedCircuit is a circuit and its CircuitDigest. A circuit is not
// modified after Builder.Build, so one memo entry is shared by every
// job that names it.
type loadedCircuit struct {
	c      *circuit.Circuit
	digest string
}

// loadCircuit returns spec's circuit and its digest, and whether they
// came from the circuit memo. Only named circuits are memoized; an
// inline one (spec.Circ) is digested per job. A miss loads outside the
// memo's lock, so concurrent misses on one name may both load; the
// first insert wins. A failed load is not memoized.
func (e *Engine) loadCircuit(spec Spec) (loadedCircuit, bool, error) {
	if c := spec.Circ; c != nil {
		return loadedCircuit{c: c, digest: CircuitDigest(c)}, false, nil
	}
	if lc, ok := e.circuits.Get(spec.Circuit); ok {
		return lc, true, nil
	}
	c, err := experiments.LoadCircuit(spec.Circuit)
	if err != nil {
		return loadedCircuit{}, false, err
	}
	return e.circuits.Put(spec.Circuit, loadedCircuit{c: c, digest: CircuitDigest(c)}), false, nil
}

// preparedMemoSize bounds the prepared-set memo. An entry is the
// screened sets of one fault-set shape (1.7 MiB for b04 at the paper's
// NP 10000), and a server runs few shapes at a time.
const preparedMemoSize = 16

// preparedSets is everything execute derives from prepare for one
// fault-set shape. One entry is shared by every job of its shape, so
// nothing may modify it but program, once.
type preparedSets struct {
	p0, p1                     []robust.FaultConditions // the targets, after collapse
	all                        []robust.FaultConditions // P0 then P1, never collapsed
	p0Size, p1Size             int                      // |P0| and |P1| before collapse
	i0, enumerated, eliminated int
	faultDigest                string // faultSetDigest(p0, p1)

	compile sync.Once
	prog    *bitsim.Program // detection of all, built by program
}

// program returns the compiled detection of all, compiled by the first
// job of the shape that grades tests. Enrichment never builds it, and
// the memo's bound bounds its memory.
func (ps *preparedSets) program(c *circuit.Circuit) *bitsim.Program {
	ps.compile.Do(func() { ps.prog = bitsim.Compile(c, ps.all) })
	return ps.prog
}

// preparedKey is a fault-set shape: the full circuit digest, NP, NP0
// and collapse. Enumeration, screening and the N_P0 partition read
// nothing but the circuit, NP and NP0, so the seed, heuristic, BnB,
// kind and tests are not part of it.
func preparedKey(circuitHash string, spec Spec) string {
	return fmt.Sprintf("%s/np=%d/np0=%d/collapse=%t", circuitHash, spec.NP, spec.NP0, spec.Collapse)
}

// prepare returns the prepared sets of spec's shape and whether they
// came from the memo. A miss prepares outside the memo's lock, so
// concurrent misses on one shape may both compute (identical sets);
// the first insert wins. A failed prepare is not memoized.
func (e *Engine) prepare(ctx context.Context, c *circuit.Circuit, circuitHash string, spec Spec) (*preparedSets, bool, error) {
	key := preparedKey(circuitHash, spec)
	if ps, ok := e.prepared.Get(key); ok {
		return ps, true, nil
	}
	d, err := experiments.PrepareCircuitCtx(ctx, c, experiments.Params{NP: spec.NP, NP0: spec.NP0})
	if err != nil {
		return nil, false, err
	}
	p0, p1 := d.P0, d.P1
	if spec.Collapse {
		_, cspan := obs.StartSpan(ctx, "collapse",
			obs.Int("p0_before", len(p0)), obs.Int("p1_before", len(p1)))
		p0 = collapseSet(p0)
		p1 = collapseSet(p1)
		cspan.End(obs.Int("p0_after", len(p0)), obs.Int("p1_after", len(p1)))
	}
	ps := &preparedSets{
		p0: p0, p1: p1, all: d.All(),
		p0Size: len(d.P0), p1Size: len(d.P1),
		i0: d.I0, enumerated: d.Enumerated, eliminated: d.Eliminated,
		faultDigest: faultSetDigest(p0, p1),
	}
	return e.prepared.Put(key, ps), false, nil
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
	return wait(ctx, j)
}
