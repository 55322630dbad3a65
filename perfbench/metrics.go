package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches keeps them in
// step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// exact marks a counter that must repeat exactly for a seed; the
	// determinism gate compares it across runs.
	exact bool
}

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "job_p50_s", Unit: "s", Better: "lower"},
	{Name: "tests_total", Unit: "count", Better: "lower"},
	{Name: "p0_cov", Unit: "ratio", Better: "higher"},
	{Name: "p1_cov", Unit: "ratio", Better: "higher"},
	{Name: "faults_detected", Unit: "count", Better: "higher"},
	{Name: "alloc_mb_per_job", Unit: "MiB", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher"},
}

// spanMetric maps a span name to the per-job self-time metric it feeds.
// Together these partition a traced job's wall time (obs.traced_job_s).
var spanMetric = map[string]string{
	"job":       "bench.self_s",
	"cluster":   "cluster.call_s",
	"http":      "http.call_s",
	"engine":    "engine.call_s",
	"load":      "load.self_s",
	"pathenum":  "pathenum.self_s",
	"screen":    "screen.self_s",
	"partition": "partition.self_s",
	"core":      "core.self_s",
	"testio":    "testio.parse_s",
	"faultsim":  "faultsim.self_s",
	"encode":    "encode.self_s",
	"store.get": "store.self_s",
	"store.put": "store.self_s",
	"journal":   "journal.self_s",
}

// perLayerMetrics are reported by every workload with --trace 1; a
// layer a workload does not cross reports 0.
var perLayerMetrics = []metricDef{
	// Self time per job, by layer.
	{Name: "obs.traced_job_s", Unit: "s", Better: "lower"},
	{Name: "bench.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.call_s", Unit: "s", Better: "lower"},
	{Name: "http.call_s", Unit: "s", Better: "lower"},
	{Name: "engine.call_s", Unit: "s", Better: "lower"},
	{Name: "load.self_s", Unit: "s", Better: "lower"},
	{Name: "pathenum.self_s", Unit: "s", Better: "lower"},
	{Name: "screen.self_s", Unit: "s", Better: "lower"},
	{Name: "partition.self_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "testio.parse_s", Unit: "s", Better: "lower"},
	{Name: "faultsim.self_s", Unit: "s", Better: "lower"},
	{Name: "encode.self_s", Unit: "s", Better: "lower"},
	{Name: "store.self_s", Unit: "s", Better: "lower"},
	{Name: "journal.self_s", Unit: "s", Better: "lower"},

	// core and justify: exact work counters, summed over the job list.
	{Name: "core.secondary_accepts", Unit: "count", Better: "higher", exact: true},
	{Name: "core.secondary_rejects", Unit: "count", Better: "lower", exact: true},
	{Name: "core.p1_accepts", Unit: "count", Better: "higher", exact: true},
	{Name: "core.cheap_accepts", Unit: "count", Better: "higher", exact: true},
	{Name: "core.regenerations", Unit: "count", Better: "lower", exact: true},
	{Name: "core.primary_aborts", Unit: "count", Better: "lower", exact: true},
	{Name: "core.accept_ratio", Unit: "ratio", Better: "higher", exact: true},
	{Name: "justify.calls", Unit: "count", Better: "lower", exact: true},
	{Name: "justify.successes", Unit: "count", Better: "higher", exact: true},
	{Name: "justify.probes", Unit: "count", Better: "lower", exact: true},
	{Name: "justify.decisions", Unit: "count", Better: "lower", exact: true},
	{Name: "justify.probes_per_call", Unit: "count", Better: "lower", exact: true},
	{Name: "justify.success_ratio", Unit: "ratio", Better: "higher", exact: true},

	// pathenum, robust (screen), faults (partition).
	{Name: "pathenum.paths", Unit: "count", Better: "lower", exact: true},
	{Name: "pathenum.extensions", Unit: "count", Better: "lower", exact: true},
	{Name: "screen.eliminated", Unit: "count", Better: "lower", exact: true},
	{Name: "partition.p0", Unit: "count", Better: "higher", exact: true},
	{Name: "partition.p1", Unit: "count", Better: "higher", exact: true},

	// faultsim.
	{Name: "faultsim.tests", Unit: "count", Better: "lower", exact: true},
	{Name: "faultsim.faults", Unit: "count", Better: "lower", exact: true},
	{Name: "faultsim.detected", Unit: "count", Better: "higher", exact: true},

	// engine, HTTP edge, cluster.
	{Name: "engine.queued_s", Unit: "s", Better: "lower"},
	{Name: "engine.run_s", Unit: "s", Better: "lower"},
	{Name: "engine.overhead_s", Unit: "s", Better: "lower"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "http.overhead_s", Unit: "s", Better: "lower"},
	{Name: "cluster.overhead_s", Unit: "s", Better: "lower"},
	{Name: "cluster.owner_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.replica_installs", Unit: "count", Better: "lower"},
	{Name: "fleet.hit_p90_s", Unit: "s", Better: "lower"},
	{Name: "fleet.miss_p50_s", Unit: "s", Better: "lower"},

	// store and journal.
	{Name: "store.get_s", Unit: "s", Better: "lower"},
	{Name: "store.put_s", Unit: "s", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.misses", Unit: "count", Better: "lower"},
	{Name: "store.entry_bytes", Unit: "B", Better: "lower"},
	{Name: "journal.append_s", Unit: "s", Better: "lower"},
	{Name: "journal.appends_per_job", Unit: "count", Better: "lower", exact: true},

	// Go runtime.
	{Name: "runtime.gc_cycles_per_job", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},

	// Tracing overhead: a sanity check on the traced run.
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// Mean factor the untraced timings were scaled by (calib.go).
	{Name: "host.speed_factor", Unit: "ratio", Better: "higher"},
}
