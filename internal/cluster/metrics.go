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
	// — the fleet-level mirror of the engines' pdfd_tenant_* families —
	// for the default tenant and the roster's names only (see admit).
	tenantRouted *obs.CounterVec
	// sheds counts 503 answers to forwarded submissions, per backend.
	sheds *obs.CounterVec
	// backendErrors counts transport failures (no HTTP response), per
	// backend.
	backendErrors *obs.CounterVec
	// healthTransitions counts state changes by backend and new state.
	healthTransitions *obs.CounterVec
	// proxySeconds times proxied backend round trips by route.
	proxySeconds *obs.HistogramVec
	// routeSeconds times whole routed submissions by outcome; retained
	// routing traces attach as OpenMetrics exemplars.
	routeSeconds *obs.HistogramVec

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
		healthTransitions: obs.NewCounterVec("pdfd_cluster_health_transitions_total",
			"Backend health-state transitions, by new state.", "backend", "to"),
		proxySeconds: obs.NewHistogramVec("pdfd_cluster_proxy_request_duration_seconds",
			"Latency of proxied backend requests, by route.", obs.DefBuckets, "route"),
		routeSeconds: obs.NewHistogramVec("pdfd_cluster_route_duration_seconds",
			"End-to-end latency of routed submissions, by outcome.", obs.DefBuckets, "outcome"),
	}
	// perBackend is a gauge family with one row per backend, read from
	// the backend's state and atomics at scrape time.
	perBackend := func(name, help string, read func(*backend) float64) obs.Collector {
		//lint:ignore metricname name is forwarded verbatim from the constant strings below; MustRegister re-validates the grammar at registration
		return obs.NewGaugeVecFunc(name, help, func(set func(float64, ...string)) {
			for _, name := range c.order {
				set(read(c.backends[name]), name)
			}
		}, "backend")
	}
	inState := func(st State) func(*backend) float64 {
		return func(b *backend) float64 {
			if b.State() == st {
				return 1
			}
			return 0
		}
	}
	reg.MustRegister(
		m.routed, m.tenantRouted, m.sheds, m.backendErrors,
		m.healthTransitions, m.proxySeconds, m.routeSeconds,
		perBackend("pdfd_cluster_backend_up",
			"1 when the backend is healthy (taking new jobs).", inState(StateHealthy)),
		perBackend("pdfd_cluster_backend_draining",
			"1 when the backend is draining (on the ring, reads only).", inState(StateDraining)),
		perBackend("pdfd_cluster_backend_queue_depth",
			"Queued jobs reported by the backend's last health probe.",
			func(b *backend) float64 { return float64(b.queueDepth.Load()) }),
		perBackend("pdfd_cluster_backend_inflight",
			"Running jobs reported by the backend's last health probe.",
			func(b *backend) float64 { return float64(b.inflight.Load()) }),
		perBackend("pdfd_cluster_proxy_inflight",
			"Coordinator requests currently in flight to the backend.",
			func(b *backend) float64 { return float64(b.proxied.Load()) }),
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
