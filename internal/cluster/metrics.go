package cluster

import (
	"sync/atomic"

	"repro/internal/obs"
)

// metrics is the cluster-level observability surface, exposed on the
// coordinator's /v1/metrics in Prometheus text format.
type metrics struct {
	// routed counts accepted submissions by backend and affinity
	// (owner / failover / spillover).
	routed *obs.CounterVec
	// tenantRouted counts accepted submissions by tenant and affinity
	// — the fleet-level mirror of the engines' pdfd_tenant_* families.
	tenantRouted *obs.CounterVec
	// sheds counts 503 answers to forwarded submissions, per backend.
	sheds *obs.CounterVec
	// backendErrors counts transport failures (no HTTP response), per
	// backend.
	backendErrors *obs.CounterVec
	// breakerOpens counts closed->open breaker transitions, per
	// backend.
	breakerOpens *obs.CounterVec
	// healthTransitions counts state changes by backend and new state.
	healthTransitions *obs.CounterVec
	// proxySeconds times proxied backend round trips by route.
	proxySeconds *obs.HistogramVec
	// routeSeconds times whole routed submissions by outcome; retained
	// routing traces attach as OpenMetrics exemplars.
	routeSeconds *obs.HistogramVec

	// Per-backend gauges, refreshed by the health loop (and, for
	// proxyInflight, on every proxied request).
	backendUp         *obs.GaugeVec
	backendDraining   *obs.GaugeVec
	backendQueueDepth *obs.GaugeVec
	backendInflight   *obs.GaugeVec
	proxyInflight     *obs.GaugeVec

	// Scalar counters exposed through func collectors.
	spillovers atomic.Int64
	batches    atomic.Int64
	batchJobs  atomic.Int64
}

func newClusterMetrics(reg *obs.Registry, c *Coordinator) *metrics {
	m := &metrics{
		routed: obs.NewCounterVec("pdfd_cluster_jobs_routed_total",
			"Accepted submissions, by backend and routing affinity (owner, failover, spillover).",
			"backend", "affinity"),
		tenantRouted: obs.NewCounterVec("pdfd_cluster_tenant_routed_total",
			"Accepted submissions, by tenant and routing affinity.",
			"tenant", "affinity"),
		sheds: obs.NewCounterVec("pdfd_cluster_backend_sheds_total",
			"Forwarded submissions a backend shed with 503.", "backend"),
		backendErrors: obs.NewCounterVec("pdfd_cluster_backend_errors_total",
			"Proxied requests that failed without an HTTP response.", "backend"),
		breakerOpens: obs.NewCounterVec("pdfd_cluster_breaker_opens_total",
			"Circuit breaker open transitions.", "backend"),
		healthTransitions: obs.NewCounterVec("pdfd_cluster_health_transitions_total",
			"Backend health-state transitions, by new state.", "backend", "to"),
		proxySeconds: obs.NewHistogramVec("pdfd_cluster_proxy_request_duration_seconds",
			"Latency of proxied backend requests, by route.", obs.DefBuckets, "route"),
		routeSeconds: obs.NewHistogramVec("pdfd_cluster_route_duration_seconds",
			"End-to-end latency of routed submissions, by outcome.", obs.DefBuckets, "outcome"),
		backendUp: obs.NewGaugeVec("pdfd_cluster_backend_up",
			"1 when the backend is healthy (taking new jobs).", "backend"),
		backendDraining: obs.NewGaugeVec("pdfd_cluster_backend_draining",
			"1 when the backend is draining (on the ring, reads only).", "backend"),
		backendQueueDepth: obs.NewGaugeVec("pdfd_cluster_backend_queue_depth",
			"Queued jobs reported by the backend's last health probe.", "backend"),
		backendInflight: obs.NewGaugeVec("pdfd_cluster_backend_inflight",
			"Running jobs reported by the backend's last health probe.", "backend"),
		proxyInflight: obs.NewGaugeVec("pdfd_cluster_proxy_inflight",
			"Coordinator requests currently in flight to the backend.", "backend"),
	}
	reg.MustRegister(
		m.routed, m.tenantRouted, m.sheds, m.backendErrors, m.breakerOpens,
		m.healthTransitions, m.proxySeconds, m.routeSeconds,
		m.backendUp, m.backendDraining, m.backendQueueDepth,
		m.backendInflight, m.proxyInflight,
		obs.NewCounterFunc("pdfd_cluster_spillovers_total",
			"Submissions redirected to the least-loaded backend after the ring owner shed.",
			func() float64 { return float64(m.spillovers.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_batches_total",
			"POST /v1/jobs:batch requests served.",
			func() float64 { return float64(m.batches.Load()) }),
		obs.NewCounterFunc("pdfd_cluster_batch_jobs_total",
			"Individual jobs carried by batch requests.",
			func() float64 { return float64(m.batchJobs.Load()) }),
		obs.NewGaugeFunc("pdfd_cluster_backends",
			"Configured backends.",
			func() float64 { return float64(len(c.backends)) }),
		obs.NewGaugeFunc("pdfd_cluster_backends_healthy",
			"Backends currently healthy.",
			func() float64 { return float64(c.Healthy()) }),
		obs.NewGaugeFunc("pdfd_cluster_ring_nodes",
			"Backends currently on the hash ring (healthy plus draining).",
			func() float64 {
				n := 0
				for _, b := range c.backends {
					if b.State() != StateDown {
						n++
					}
				}
				return float64(n)
			}),
		obs.NewGaugeFunc("pdfd_cluster_traces_retained",
			"Routing traces currently tail-retained.",
			func() float64 { return float64(c.traces.Stats().Retained) }),
		obs.NewGaugeFunc("pdfd_cluster_traces_retained_bytes",
			"Approximate bytes held by the routing-trace retention buffer.",
			func() float64 { return float64(c.traces.Stats().Bytes) }),
		obs.NewCounterFunc("pdfd_cluster_traces_offered_total",
			"Routing traces offered to the retention buffer.",
			func() float64 { return float64(c.traces.Stats().Offered) }),
		obs.NewCounterFunc("pdfd_cluster_traces_kept_total",
			"Routing traces the retention buffer decided to keep.",
			func() float64 { return float64(c.traces.Stats().Kept) }),
		obs.NewCounterFunc("pdfd_cluster_traces_evicted_total",
			"Retained routing traces evicted by the buffer caps.",
			func() float64 { return float64(c.traces.Stats().Evicted) }),
	)
	return m
}

// setBackendGauges refreshes b's health and load gauges from its
// atomics.
func (m *metrics) setBackendGauges(b *backend) {
	st := b.State()
	up, draining := 0.0, 0.0
	if st == StateHealthy {
		up = 1
	}
	if st == StateDraining {
		draining = 1
	}
	m.backendUp.With(b.name).Set(up)
	m.backendDraining.With(b.name).Set(draining)
	m.backendQueueDepth.With(b.name).Set(float64(b.queueDepth.Load()))
	m.backendInflight.With(b.name).Set(float64(b.inflight.Load()))
	m.proxyInflight.With(b.name).Set(float64(b.proxied.Load()))
}
