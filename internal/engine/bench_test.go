package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
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

// BenchmarkEngineGradeSim is one grading job of perfbench's grade-sim
// workload: 2,048 random tests fault simulated against s1423's P0∪P1
// at NP 2000, NP0 700, with the result cache bypassed. A warm-up job
// fills the engine's memos first, so each iteration measures parsing,
// simulation and result assembly.
func BenchmarkEngineGradeSim(b *testing.B) {
	c, err := experiments.LoadCircuit("s1423")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tests := make([]string, 2048)
	for i := range tests {
		tests[i] = core.RandomTest(c, rng).String()
	}
	spec := Spec{Kind: KindFaultSim, Circuit: "s1423", NP: 2000, NP0: 700, Tests: tests, NoCache: true}
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.RunJob(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := e.RunJob(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if v.Status != StatusDone {
			b.Fatalf("status %s: %s", v.Status, v.Error)
		}
	}
}
