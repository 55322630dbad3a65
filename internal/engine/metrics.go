package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metrics holds the engine's operational counters. All methods are
// safe for concurrent use. Engine.Registry exposes all of them in the
// Prometheus exposition; Snapshot copies the scalar counters for Go
// callers.
type Metrics struct {
	jobsSubmitted atomic.Int64
	jobsRunning   atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	jobsShed      atomic.Int64
	jobPanics     atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cachePuts     atomic.Int64

	journalAppends     atomic.Int64
	journalErrors      atomic.Int64
	journalCompactions atomic.Int64

	// Algorithm-level telemetry, accumulated from every generate and
	// enrich run: the justification effort and the secondary-target
	// outcomes the paper's cost/coverage argument is about.
	justifyCalls      atomic.Int64
	justifyProbes     atomic.Int64
	justifyBacktracks atomic.Int64

	// Fixed-bucket latency histograms (seconds): per pipeline stage,
	// end-to-end per job (labeled by kind and terminal status), and
	// queue wait between submit and the first run — or, for jobs shed
	// before ever running (canceled while queued, e.g. at shutdown),
	// between submit and cancellation, labeled by outcome.
	stageSeconds *obs.HistogramVec
	jobSeconds   *obs.HistogramVec
	queueSeconds *obs.HistogramVec

	// secondaryOutcomes counts secondary accepts/rejects labeled by
	// target set (p0, p1, ...) and outcome; regenPerTest distributes
	// the per-test regeneration counts (non-cheap accepts).
	secondaryOutcomes *obs.CounterVec
	regenPerTest      *obs.Histogram

	// prepareMemo counts completed prepare stages by whether the
	// fault-set shape's prepared sets came from the memo (hit) or
	// were computed (miss).
	prepareMemo *obs.CounterVec

	// The written pdfd_tenant_* families of the multi-tenant scheduler:
	// completed jobs, submit-time sheds by reason (quota, queue_full,
	// overloaded), and the per-tenant queue-wait distribution. The
	// queued and running gauges read the scheduler at scrape time; an
	// anonymous tenant's written rows leave with it (dropTenant).
	tenantDone      *obs.CounterVec
	tenantShed      *obs.CounterVec
	tenantQueueWait *obs.HistogramVec
}

// RegenBuckets are the upper bounds of the per-test regeneration
// histogram: small integer counts, with le="0" isolating tests that
// were never regenerated (all secondaries cheap or rejected).
var RegenBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

func newMetrics() *Metrics {
	return &Metrics{
		stageSeconds: obs.NewHistogramVec("pdfd_stage_duration_seconds",
			"Pipeline stage latency by stage name.", obs.DefBuckets, "stage"),
		jobSeconds: obs.NewHistogramVec("pdfd_job_duration_seconds",
			"End-to-end job latency (submit to terminal status), by kind and status.",
			obs.DefBuckets, "kind", "status"),
		queueSeconds: obs.NewHistogramVec("pdfd_job_queue_wait_seconds",
			"Wait between job submission and its first run (outcome=ran), or its cancellation for jobs shed before running (outcome=shed).",
			obs.DefBuckets, "outcome"),
		secondaryOutcomes: obs.NewCounterVec("pdfd_atpg_secondary_total",
			"Secondary-target outcomes by target set (p0, p1, ...) and outcome (accept, reject).",
			"set", "outcome"),
		regenPerTest: obs.NewHistogram("pdfd_atpg_regenerations_per_test",
			"Per-test justification regenerations (non-cheap secondary accepts).", RegenBuckets),
		prepareMemo: obs.NewCounterVec("pdfd_prepare_memo_total",
			"Completed prepare stages by result: hit = prepared sets reused from the memo of the job's fault-set shape, miss = enumerated, screened and partitioned.",
			"result"),
		tenantDone: obs.NewCounterVec("pdfd_tenant_jobs_done_total",
			"Jobs that reached status done, per tenant.", "tenant"),
		tenantShed: obs.NewCounterVec("pdfd_tenant_shed_total",
			"Submissions shed at submit time per tenant, by reason (quota = per-tenant queue bound, queue_full = anonymous-mode bound, overloaded = global shed watermark).",
			"tenant", "reason"),
		tenantQueueWait: obs.NewHistogramVec("pdfd_tenant_queue_wait_seconds",
			"Wait between submission and first run (or cancellation for jobs shed before running), per tenant.",
			obs.DefBuckets, "tenant"),
	}
}

// dropTenant removes a tenant's rows from the per-tenant written
// families once the scheduler no longer holds it, so distinct
// anonymous names do not accumulate series; a name that comes back
// starts its counters at 0.
func (m *Metrics) dropTenant(name string) {
	m.tenantDone.DeleteFirst(name)
	m.tenantShed.DeleteFirst(name)
	m.tenantQueueWait.DeleteFirst(name)
}

// observeATPG folds one generate or enrich run's work into the metrics.
func (m *Metrics) observeATPG(w *core.Work) {
	m.justifyCalls.Add(int64(w.JustifyStats.Calls))
	m.justifyProbes.Add(int64(w.JustifyStats.Probes))
	m.justifyBacktracks.Add(int64(w.JustifyStats.Backtracks))
	for s, n := range w.SecondaryAcceptsBySet {
		if n > 0 {
			m.secondaryOutcomes.With(setLabel(s), "accept").Add(int64(n))
		}
		if n := w.SecondaryRejectsBySet[s]; n > 0 {
			m.secondaryOutcomes.With(setLabel(s), "reject").Add(int64(n))
		}
	}
	for _, r := range w.RegenPerTest {
		m.regenPerTest.Observe(float64(r))
	}
}

// setLabel names target set s in the paper's vocabulary: p0 is the
// most critical set, p1 the next, and so on.
func setLabel(s int) string { return fmt.Sprintf("p%d", s) }

// Snapshot is a copy of the engine's scalar counters for Go callers;
// /v1/metrics exposes the same values as pdfd_* series.
type Snapshot struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsQueued    int64 `json:"jobs_queued"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	// JobsShed counts submissions shed at submit time, for any reason;
	// JobPanics counts runs that panicked and were contained.
	JobsShed  int64 `json:"jobs_shed"`
	JobPanics int64 `json:"job_panics"`
	// QueueDepth is the instantaneous run-queue occupancy; Overloaded
	// reports the shed watermark state feeding /v1/healthz.
	QueueDepth  int   `json:"queue_depth"`
	Overloaded  bool  `json:"overloaded"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CachePuts   int64 `json:"cache_puts"`
	CacheLen    int   `json:"cache_len"`
	// Journal health: records appended, append/compact failures, and
	// completed compactions. Zero when journaling is disabled.
	JournalAppends     int64 `json:"journal_appends"`
	JournalErrors      int64 `json:"journal_errors"`
	JournalCompactions int64 `json:"journal_compactions"`
	// Tenants reports each tenant's live scheduler state (queued,
	// running, weight). Filled by Engine.Metrics.
	Tenants map[string]TenantSnapshot `json:"tenants"`
}

// buildRegistry wires the engine's counters, gauges and histograms
// into a Prometheus registry. Counters are exposed through read
// functions over the existing atomics so Snapshot and the exposition
// can never disagree.
func buildRegistry(e *Engine) *obs.Registry {
	m := e.metrics
	ctr := func(name, help string, v *atomic.Int64) obs.Collector {
		//lint:ignore metricname name is forwarded verbatim from the constant strings below; MustRegister re-validates the grammar at registration
		return obs.NewCounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	reg := obs.NewRegistry()
	reg.MustRegister(
		ctr("pdfd_jobs_submitted_total", "Jobs accepted by Submit.", &m.jobsSubmitted),
		ctr("pdfd_jobs_done_total", "Jobs that reached status done.", &m.jobsDone),
		ctr("pdfd_jobs_failed_total", "Jobs whose run failed or panicked.", &m.jobsFailed),
		ctr("pdfd_jobs_canceled_total", "Jobs canceled before completing.", &m.jobsCanceled),
		ctr("pdfd_jobs_shed_total", "Submissions shed at submit time, for any reason (overloaded, quota or queue_full).", &m.jobsShed),
		ctr("pdfd_job_panics_total", "Job runs that panicked and were contained.", &m.jobPanics),
		ctr("pdfd_cache_hits_total", "Result cache hits.", &m.cacheHits),
		ctr("pdfd_cache_misses_total", "Result cache misses.", &m.cacheMisses),
		ctr("pdfd_cache_puts_total", "Result cache stores.", &m.cachePuts),
		ctr("pdfd_journal_appends_total", "Journal records appended.", &m.journalAppends),
		ctr("pdfd_journal_errors_total", "Journal append/compact failures.", &m.journalErrors),
		ctr("pdfd_journal_compactions_total", "Journal compactions completed.", &m.journalCompactions),
		ctr("pdfd_atpg_justify_calls_total", "Justification procedure invocations across all runs.", &m.justifyCalls),
		ctr("pdfd_atpg_justify_probes_total", "Tentative value probes made by the justifiers.", &m.justifyProbes),
		ctr("pdfd_atpg_justify_backtracks_total", "Branch-and-bound justification backtracks (zero for the simulation-based justifier).", &m.justifyBacktracks),
		obs.NewCounterFunc("pdfd_events_published_total", "Job lifecycle events published on the event bus.",
			func() float64 { return float64(e.events.Published()) }),
		obs.NewCounterFunc("pdfd_events_dropped_total", "Events dropped because a subscriber's buffer was full.",
			func() float64 { return float64(e.events.Dropped()) }),
		obs.NewGaugeFunc("pdfd_event_subscribers", "Currently attached event-stream subscribers.",
			func() float64 { return float64(e.events.Subscribers()) }),
		obs.NewGaugeFunc("pdfd_cache_hit_ratio", "Result cache hits / lookups since start (0 before the first lookup).",
			func() float64 {
				hit, miss := float64(m.cacheHits.Load()), float64(m.cacheMisses.Load())
				if hit+miss == 0 {
					return 0
				}
				return hit / (hit + miss)
			}),
		obs.NewGaugeFunc("pdfd_jobs_running", "Jobs currently executing.",
			func() float64 { return float64(m.jobsRunning.Load()) }),
		obs.NewGaugeFunc("pdfd_queue_depth", "Instantaneous run-queue occupancy across all tenants.",
			func() float64 { return float64(e.sched.len()) }),
		obs.NewGaugeFunc("pdfd_overloaded", "1 while the shed watermark is tripped.",
			func() float64 { return b2f(e.overloaded.Load()) }),
		obs.NewGaugeFunc("pdfd_cache_entries", "Result cache occupancy.",
			func() float64 { return float64(e.cache.Len()) }),
		m.stageSeconds,
		m.jobSeconds,
		m.queueSeconds,
		m.secondaryOutcomes,
		m.regenPerTest,
		m.prepareMemo,
		obs.NewGaugeVecFunc("pdfd_tenant_queued", "Queued jobs per tenant.",
			func(set func(float64, ...string)) {
				for name, t := range e.sched.snapshot() {
					set(float64(t.Queued), name)
				}
			}, "tenant"),
		obs.NewGaugeVecFunc("pdfd_tenant_running", "Executing jobs per tenant.",
			func(set func(float64, ...string)) {
				for name, t := range e.sched.snapshot() {
					set(float64(t.Running), name)
				}
			}, "tenant"),
		m.tenantDone,
		m.tenantShed,
		m.tenantQueueWait,
	)
	if st := e.cfg.Store; st != nil {
		sm := st.MetricsRef()
		reg.MustRegister(
			ctr("pdfd_store_hits_total", "Durable store read-through hits.", &sm.Hits),
			ctr("pdfd_store_misses_total", "Durable store read-through misses.", &sm.Misses),
			ctr("pdfd_store_puts_total", "Durable store write-throughs completed.", &sm.Puts),
			ctr("pdfd_store_put_errors_total", "Durable store writes that failed.", &sm.PutErrors),
			ctr("pdfd_store_evictions_total", "Durable store entries evicted by the size bounds.", &sm.Evictions),
			ctr("pdfd_store_corrupt_total", "Durable store entries rejected as torn or corrupt on load.", &sm.Corrupt),
			obs.NewGaugeFunc("pdfd_store_entries", "Durable store entry count.",
				func() float64 { return float64(st.Len()) }),
			obs.NewGaugeFunc("pdfd_store_bytes", "Durable store total payload bytes.",
				func() float64 { return float64(st.Bytes()) }),
		)
	}
	reg.MustRegister(
		obs.NewGaugeFunc("pdfd_traces_retained", "Traces currently held by the tail-retention buffer.",
			func() float64 { return float64(e.traces.Stats().Retained) }),
		obs.NewGaugeFunc("pdfd_traces_retained_bytes", "Approximate bytes held by the tail-retention trace buffer.",
			func() float64 { return float64(e.traces.Stats().Bytes) }),
		obs.NewCounterFunc("pdfd_traces_offered_total", "Finished traces offered to the tail-retention buffer.",
			func() float64 { return float64(e.traces.Stats().Offered) }),
		obs.NewCounterFunc("pdfd_traces_kept_total", "Offered traces the tail-retention buffer decided to keep.",
			func() float64 { return float64(e.traces.Stats().Kept) }),
		obs.NewCounterFunc("pdfd_traces_evicted_total", "Retained traces evicted by the buffer's count/byte caps.",
			func() float64 { return float64(e.traces.Stats().Evicted) }),
	)
	obs.RegisterBuildInfo(reg)
	obs.RegisterGoRuntime(reg)
	return reg
}

func (m *Metrics) snapshot(cacheLen int) Snapshot {
	s := Snapshot{
		JobsSubmitted: m.jobsSubmitted.Load(),
		JobsRunning:   m.jobsRunning.Load(),
		JobsDone:      m.jobsDone.Load(),
		JobsFailed:    m.jobsFailed.Load(),
		JobsCanceled:  m.jobsCanceled.Load(),
		JobsShed:      m.jobsShed.Load(),
		JobPanics:     m.jobPanics.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		CachePuts:     m.cachePuts.Load(),
		CacheLen:      cacheLen,

		JournalAppends:     m.journalAppends.Load(),
		JournalErrors:      m.journalErrors.Load(),
		JournalCompactions: m.journalCompactions.Load(),
	}
	s.JobsQueued = s.JobsSubmitted - s.JobsRunning - s.JobsDone - s.JobsFailed - s.JobsCanceled
	return s
}
