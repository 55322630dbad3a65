// Package engine is the concurrent job-orchestration layer over the
// paper's procedures: ATPG (core.Generate), test enrichment
// (core.Enrich) and fault simulation (a bitsim.Program, compiled once
// per fault-set shape) become *jobs* executed on a bounded worker pool
// with per-job context cancellation and deadlines, and a result cache
// keyed by 03/<circuit16>/<spec16>: the result version, then the first
// 16 hex digits of the circuit and spec digests. The fault sets derive from
// those two, so the key is known before prepare (see cacheKey).
//
// The engine is consumed two ways: programmatically (internal/cli
// routes pdfatpg runs through it) and over HTTP (cmd/pdfd serves the
// JSON API of server.go).
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/obs"
)

// Kind selects the procedure a job runs.
type Kind string

// The three job kinds.
const (
	// KindGenerate runs the basic compaction procedure on P0 and
	// measures accidental P0∪P1 detection (Tables 3-5 shape).
	KindGenerate Kind = "generate"
	// KindEnrich runs the enrichment procedure with target sets P0 and
	// P1 (Table 6 shape).
	KindEnrich Kind = "enrich"
	// KindFaultSim fault simulates a supplied test set against the
	// circuit's enumerated fault set.
	KindFaultSim Kind = "faultsim"
)

// Spec describes a job. The zero values of the numeric fields select
// the same defaults as the command-line tools.
type Spec struct {
	Kind Kind `json:"kind"`
	// Circuit names the circuit (s27, c17, or a synthetic stand-in
	// profile). Ignored when Circ is set.
	Circuit string `json:"circuit,omitempty"`
	// NP / NP0 / Seed are the experiment parameters (fault budget,
	// minimum P0 size, randomization seed).
	NP   int   `json:"np,omitempty"`
	NP0  int   `json:"np0,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Heuristic is the compaction heuristic name (uncomp, arbit,
	// length, values); empty means values, and so does uncomp for enrich.
	Heuristic string `json:"heuristic,omitempty"`
	// UseBnB switches to the deterministic branch-and-bound justifier.
	UseBnB bool `json:"bnb,omitempty"`
	// Collapse removes subsumed faults from the target sets before
	// generation (coverage is still measured on the full sets).
	Collapse bool `json:"collapse,omitempty"`
	// TimeoutMS bounds the job's run time; 0 uses the engine default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tests is the input test set of a faultsim job, one "p1 -> p2"
	// line per test in the testio format. The engine may share the
	// slice with the job's Result.Tests, so a caller must not modify
	// it after submission.
	Tests []string `json:"tests,omitempty"`
	// NoCache bypasses the result cache (both lookup and store).
	NoCache bool `json:"no_cache,omitempty"`

	// Tenant names the queue the job is scheduled under; empty means
	// the anonymous DefaultTenant. The server overwrites it with the
	// authenticated tenant when bearer auth is configured. Tenant and
	// Priority are scheduling identity, not computation identity: both
	// are excluded from SpecDigest, so equal computations share cache
	// entries and cluster routing across tenants.
	Tenant string `json:"tenant,omitempty"`
	// Priority picks the band inside the tenant's queue: "interactive"
	// (the default) dispatches strictly before "batch", letting bulk
	// sweeps ride behind latency-sensitive work.
	Priority string `json:"priority,omitempty"`

	// Circ lets programmatic callers pass an already-built circuit
	// (e.g. one parsed from a .bench file); HTTP callers name circuits
	// via Circuit.
	Circ *circuit.Circuit `json:"-"`
}

// normalized validates the spec and fills defaults.
func (s Spec) normalized() (Spec, error) {
	switch s.Kind {
	case KindGenerate, KindEnrich, KindFaultSim:
	default:
		return s, fmt.Errorf("engine: unknown job kind %q", s.Kind)
	}
	if s.Circ == nil && s.Circuit == "" {
		return s, fmt.Errorf("engine: job needs a circuit")
	}
	if s.Circ != nil && s.Circuit == "" {
		s.Circuit = s.Circ.Name
	}
	if s.Heuristic == "" || s.Kind == KindEnrich && s.Heuristic == core.Uncompacted.String() {
		s.Heuristic = core.ValueBased.String() // what core.EnrichKCtx runs for uncomp
	}
	if _, err := core.ParseHeuristic(s.Heuristic); err != nil {
		return s, err
	}
	if s.Kind == KindFaultSim && len(s.Tests) == 0 {
		return s, fmt.Errorf("engine: faultsim job needs tests")
	}
	if s.NP < 0 || s.NP0 < 0 || s.TimeoutMS < 0 {
		return s, fmt.Errorf("engine: negative spec parameter")
	}
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if !ValidTenantName(s.Tenant) {
		return s, fmt.Errorf("engine: bad tenant name %q", s.Tenant)
	}
	switch s.Priority {
	case "":
		s.Priority = PriorityInteractive
	case PriorityInteractive, PriorityBatch:
	default:
		return s, fmt.Errorf("engine: unknown priority %q (want %q or %q)", s.Priority, PriorityInteractive, PriorityBatch)
	}
	return s, nil
}

func (s Spec) timeout() time.Duration {
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// Result is the outcome of a completed job: only what it serves on the
// wire, the tests as their canonical strings. It contains no wall-clock
// fields, so equal computations marshal to identical bytes — the
// determinism golden tests and the cache both rely on this.
type Result struct {
	Kind        Kind   `json:"kind"`
	Circuit     string `json:"circuit"`
	CircuitHash string `json:"circuit_hash"`
	FaultDigest string `json:"fault_digest"`
	CacheKey    string `json:"cache_key"`

	// Prepare-stage shape: enumeration and P0/P1 partition.
	Enumerated int `json:"enumerated"`
	Eliminated int `json:"eliminated"`
	I0         int `json:"i0"`
	P0Size     int `json:"p0_size"`
	P1Size     int `json:"p1_size"`
	// P0Targets / P1Targets are the targeted set sizes after the
	// optional collapse (equal to P0Size/P1Size otherwise).
	P0Targets int `json:"p0_targets"`
	P1Targets int `json:"p1_targets"`

	// Generation outcome (generate and enrich kinds).
	Tests         []string `json:"tests,omitempty"`
	TestCount     int      `json:"test_count"`
	PrimaryAborts int      `json:"primary_aborts"`
	P0Detected    int      `json:"p0_detected"`
	P1Detected    int      `json:"p1_detected"`
	// AllDetected / AllTotal measure detection over the full P0∪P1
	// set (accidental detection for generate jobs).
	AllDetected int `json:"all_detected"`
	AllTotal    int `json:"all_total"`

	// FaultSim outcome: per-fault first detecting test index (-1 if
	// undetected) and the detected count.
	FirstDetect []int `json:"first_detect,omitempty"`
	Detected    int   `json:"detected,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// Job statuses. Queued and Running are transient; the rest are
// terminal. A job runs at most once: a run that fails or panics ends
// it failed.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one submitted unit of work. All fields are guarded by mu;
// read them through View.
type Job struct {
	id   string
	seq  int64
	spec Spec

	// trace collects the job's span timeline; traceCtx carries the
	// trace with the root "job" span current, so the run context
	// derived from it parents its spans correctly. Both are set once
	// before the job is published and immutable after.
	trace      *obs.Trace
	traceCtx   context.Context
	rootSpan   *obs.Span
	queuedSpan *obs.Span
	// stream is the job's lifecycle event stream, made with the job and
	// closed after its terminal event.
	stream *events.Stream

	mu         sync.Mutex
	status     Status
	err        error
	result     *Result
	cacheHit   bool
	panicStack string
	created    time.Time
	started    time.Time
	finished   time.Time
	cancel     func()

	done     chan struct{}
	doneOnce sync.Once
}

// initTrace stamps the job's creation instant and starts its span
// timeline: a root "job" span and a "queued" child covering the wait
// for a worker, both starting at created. Called once before the job
// is published to the engine maps; the trace is made first, so its
// origin never follows created.
//
// remote is the caller's W3C trace context (zero when the submission
// arrived without one): when valid, the job's trace adopts the
// caller's trace ID and sampling decision so its spans graft under
// the cross-node trace instead of starting a fresh one. Otherwise the
// job roots a new, sampled trace.
func (j *Job) initTrace(remote obs.TraceContext, attrs ...obs.Attr) {
	j.trace = obs.NewTrace(obs.DefaultSpanLimit)
	j.trace.Adopt(remote)
	j.created = time.Now()
	ctx := obs.NewContext(context.Background(), j.trace)
	ctx, j.rootSpan = obs.StartSpanAt(ctx, "job", j.created, attrs...)
	j.traceCtx = ctx
	_, j.queuedSpan = obs.StartSpanAt(ctx, "queued", j.created)
}

// traceID returns the job's W3C trace ID.
func (j *Job) traceID() string { return j.trace.ID() }

// exemplarID is the trace ID histogram exemplars should carry for
// this job: its trace ID when the trace is head-sampled (and so
// likely retained), "" otherwise.
func (j *Job) exemplarID() string {
	if !j.traceSampled() {
		return ""
	}
	return j.traceID()
}

// traceSampled reports the trace's head-sampling flag.
func (j *Job) traceSampled() bool { return j.trace.Context().Sampled }

// endQueued closes the queue-wait span at the instant the wait ended
// (idempotent: the first end is kept).
func (j *Job) endQueued(at time.Time) { j.queuedSpan.EndAt(at) }

// endRoot closes the root span at the job's finish instant with the
// terminal status.
func (j *Job) endRoot(st Status, at time.Time) {
	j.rootSpan.EndAt(at, obs.String("status", string(st)))
}

// TraceView snapshots the job's span timeline; safe while running.
func (j *Job) TraceView() obs.TraceView { return j.trace.Snapshot() }

// ID returns the job's engine-unique identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal
// status, after the engine has recorded its terminal counters and
// latency, so a waiter that reads the metrics next sees the job.
func (j *Job) Done() <-chan struct{} { return j.done }

// wake closes the Done channel; idempotent.
func (j *Job) wake() { j.doneOnce.Do(func() { close(j.done) }) }

// JobView is a consistent snapshot of a job, safe to marshal.
type JobView struct {
	ID      string `json:"id"`
	Kind    Kind   `json:"kind"`
	Circuit string `json:"circuit"`
	// Tenant / Priority are the job's scheduling identity (see Spec).
	Tenant   string `json:"tenant"`
	Priority string `json:"priority"`
	Status   Status `json:"status"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// PanicStack is the captured stack of a run that panicked (empty
	// if it did not).
	PanicStack string  `json:"panic_stack,omitempty"`
	QueuedMS   float64 `json:"queued_ms"`
	RunMS      float64 `json:"run_ms"`
	// TraceID is the job's W3C trace identity — the key for
	// /v1/traces/{trace_id} on this node or, for jobs submitted
	// through the coordinator, the fleet-wide assembled trace.
	TraceID string  `json:"trace_id,omitempty"`
	Result  *Result `json:"result,omitempty"`
	// Trace is the job's span timeline (single-job snapshots only;
	// list endpoints omit it — fetch /v1/jobs/{id} or .../trace).
	Trace *obs.TraceView `json:"trace,omitempty"`

	// seq is the pagination cursor of JobsPage; never serialized.
	seq int64
}

// View snapshots the job, span timeline included.
func (j *Job) View() JobView {
	v := j.ViewLite()
	tv := j.trace.Snapshot()
	v.Trace = &tv
	return v
}

// ViewLite snapshots the job without the span timeline; the job list
// endpoints use it to keep large listings cheap.
func (j *Job) ViewLite() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Kind:       j.spec.Kind,
		Circuit:    j.spec.Circuit,
		Tenant:     j.spec.Tenant,
		Priority:   j.spec.Priority,
		Status:     j.status,
		CacheHit:   j.cacheHit,
		PanicStack: j.panicStack,
		TraceID:    j.trace.ID(),
		Result:     j.result,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		v.QueuedMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	return v
}

// end moves the job to the terminal status st and reports whether
// this call did. A job that already ended is left untouched, so two
// racing enders (e.g. Cancel and a worker) cannot overwrite each
// other's terminal state or double-count metrics. Only the job's worker
// ends a running job: every other ender sets waiting, which ends only a
// queued job, so a running job is canceled through its context, and a
// worker that dequeues a job ended here skips it. Waiters are woken
// later, by Engine.end. When this call ended the job it also returns
// the finish instant it recorded, the one every reading of the job's
// end shares.
func (j *Job) end(waiting bool, st Status, res *Result, hit bool, err error) (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() || waiting && j.status == StatusRunning {
		return time.Time{}, false
	}
	j.status, j.result, j.cacheHit, j.err = st, res, hit, err
	j.finished = time.Now()
	return j.finished, true
}

// startTime returns when the job began running (zero if it never
// reached a worker).
func (j *Job) startTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// setPanicStack records the stack of a panicking run for JobView.
func (j *Job) setPanicStack(stack string) {
	j.mu.Lock()
	j.panicStack = stack
	j.mu.Unlock()
}
