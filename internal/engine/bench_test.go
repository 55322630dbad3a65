package engine

import (
	"testing"
)

// benchProfiles are the synthetic benches of the ENGINE_BENCH entry in
// EXPERIMENTS.md: one enrichment job each, submitted together. The
// engine outlives the iterations, so every iteration after the first
// takes its prepared sets from the memo and measures generation only.
var benchProfiles = []string{"s641", "s953", "s1196", "b09"}

func benchEngineEnrich(b *testing.B, poolWorkers int) {
	e := New(Config{Workers: poolWorkers})
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*Job, 0, len(benchProfiles))
		for _, p := range benchProfiles {
			j, err := e.Submit(Spec{
				Kind: KindEnrich, Circuit: p,
				NP: 1000, NP0: 200, Seed: 1,
				NoCache: true, // measure generation, not the result cache
			})
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			<-j.Done()
			if v := j.View(); v.Status != StatusDone {
				b.Fatalf("job %s: %s (%s)", j.ID(), v.Status, v.Error)
			}
		}
	}
}

// Serial vs 4-worker enrichment over the same job batch; the speedup
// is recorded in EXPERIMENTS.md (ENGINE_BENCH).
func BenchmarkEngineEnrichSerial(b *testing.B)   { benchEngineEnrich(b, 1) }
func BenchmarkEngineEnrich4Workers(b *testing.B) { benchEngineEnrich(b, 4) }

// Cache-hit latency: the same enrichment job answered from cache.
func BenchmarkEngineCachedJob(b *testing.B) {
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := Spec{Kind: KindEnrich, Circuit: "s641", NP: 1000, NP0: 200, Seed: 1}
	j, err := e.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := e.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if v := j.View(); !v.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}
