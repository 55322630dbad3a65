package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// BenchmarkEnrichS953 runs the per-job work of perfbench's enrich-cold
// workload without the engine: enrichment on s953 with N_P 1000 and
// N_P0 200, for seeds 1–6. One iteration is six jobs. Prepare (path
// enumeration, screening, partition) reads no seed and the engine
// memoizes it per fault-set shape, so enrich-cold jobs do not pay for
// it: it runs once, outside the timer. A CPU profile of the
// justification hot path:
//
//	go test -run '^$' -bench EnrichS953 -cpuprofile cpu.out ./internal/core/
func BenchmarkEnrichS953(b *testing.B) {
	d, err := experiments.Prepare("s953", experiments.Params{NP: 1000, NP0: 200})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 6; seed++ {
			core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: seed})
		}
	}
}

// BenchmarkEnrichPaperB04 runs enrichment at the paper's budgets on
// b04: N_P 10000, N_P0 1000, seed 1. Prepare runs once, outside the
// timer; one iteration is one enrichment, whose justification effort
// and secondary outcomes it reports (every count of its Work), so runs
// of two versions show whether their counters match. A CPU profile at
// the paper's scale:
//
//	go test -run '^$' -bench EnrichPaperB04 -cpuprofile cpu.out ./internal/core/
func BenchmarkEnrichPaperB04(b *testing.B) {
	d, err := experiments.Prepare("b04", experiments.Params{NP: 10000, NP0: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.EnrichResult
	for i := 0; i < b.N; i++ {
		res = core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: 1})
	}
	res.Counts(func(name string, n int) { b.ReportMetric(float64(n), name) })
}
