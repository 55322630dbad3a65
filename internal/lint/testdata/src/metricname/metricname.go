// Package metricnamefix is the pdflint fixture for the metricname
// analyzer: obs registration sites need constant-foldable,
// grammar-conforming metric and label names.
package metricnamefix

import "repro/internal/obs"

const prefix = "pdfd_fixture"

// Good registers well-formed constant names (including constant
// folding across idents and concatenation).
func Good() *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(
		obs.NewCounterVec(prefix+"_requests_total", "Requests.", "route"),
		obs.NewHistogram("pdfd_fixture_latency_seconds", "Latency.", obs.DefBuckets),
		obs.NewGaugeFunc("pdfd_fixture:queue_depth", "Depth.", func() float64 { return 0 }),
		obs.NewGaugeVecFunc(prefix+"_backend_up", "Backend health.", nil, "backend"),
	)
	return reg
}

// BadGrammar uses names and labels outside the text-format grammar.
func BadGrammar() {
	obs.NewCounterVec("pdfd-fixture-total", "Dashes are invalid.", "route")              // want `metric name "pdfd-fixture-total" does not match the Prometheus grammar`
	obs.NewHistogram("0starts_with_digit", "Digit start is invalid.", obs.DefBuckets)    // want `metric name "0starts_with_digit" does not match the Prometheus grammar`
	obs.NewCounterVec("pdfd_fixture_bad_label_total", "Label with colon.", "route:name") // want `label name "route:name" does not match the Prometheus grammar`
	obs.NewGaugeVecFunc("pdfd fixture gauge", "Spaces are invalid.", nil, "backend-id")  // want `metric name "pdfd fixture gauge" does not match the Prometheus grammar` `label name "backend-id" does not match the Prometheus grammar`
}

// BadDynamic assembles the name at runtime, so the exposition cannot
// be proven well-formed statically.
func BadDynamic(kind string) {
	obs.NewCounterFunc("pdfd_"+kind+"_total", "Dynamic.", func() float64 { return 0 }) // want `metric name must be a constant-foldable string`
}

// GoodTenantFamily mirrors the engine's per-tenant registration
// sites: gauge/counter/histogram vectors labelled by tenant (and shed
// reason), all with literal names.
func GoodTenantFamily() *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(
		obs.NewGaugeVecFunc("pdfd_tenant_queued", "Queued jobs by tenant.", nil, "tenant"),
		obs.NewGaugeVecFunc("pdfd_tenant_running", "Running jobs by tenant.", nil, "tenant"),
		obs.NewCounterVec("pdfd_tenant_jobs_done_total", "Completed jobs by tenant.", "tenant"),
		obs.NewCounterVec("pdfd_tenant_shed_total", "Shed submissions by tenant and reason.", "tenant", "reason"),
		obs.NewHistogramVec("pdfd_tenant_queue_wait_seconds", "Queue wait by tenant.", obs.DefBuckets, "tenant"),
		obs.NewCounterVec("pdfd_cluster_tenant_routed_total", "Routed submissions by tenant.", "tenant", "affinity"),
	)
	return reg
}

// BadTenantFamily interpolates the tenant into the metric NAME — the
// cardinality bomb the per-tenant label design exists to avoid (and a
// name the analyzer cannot prove well-formed).
func BadTenantFamily(tenant string) {
	obs.NewCounterFunc("pdfd_tenant_"+tenant+"_jobs_total", "Per-tenant family by name.", func() float64 { return 0 }) // want `metric name must be a constant-foldable string`
}

// GoodStoreFamily mirrors the durable-store registration sites: a
// counter-forwarding family plus entry/byte gauges, all with literal
// names.
func GoodStoreFamily() *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(
		obs.NewCounterFunc("pdfd_fixture_store_hits_total", "Store hits.", func() float64 { return 0 }),
		obs.NewCounterFunc("pdfd_fixture_store_corrupt_total", "Corrupt entries.", func() float64 { return 0 }),
		obs.NewGaugeFunc("pdfd_fixture_store_entries", "Entries resident.", func() float64 { return 0 }),
		obs.NewGaugeFunc("pdfd_fixture_store_bytes", "Payload bytes resident.", func() float64 { return 0 }),
	)
	return reg
}

// BadStoreFamily assembles the store family name from a runtime
// value, which the registry would expose unvalidated.
func BadStoreFamily(counter string) {
	obs.NewCounterFunc("pdfd_fixture_store_"+counter+"_total", "Dynamic family.", func() float64 { return 0 }) // want `metric name must be a constant-foldable string`
}
