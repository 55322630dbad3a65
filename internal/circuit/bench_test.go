package circuit_test

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/synth"
	"repro/internal/tval"
)

// BenchmarkTripleSim simulates one fully specified two-pattern test on
// s953 per op, into one reused TripleSim: the three-plane simulation
// of core's cheap accepts and test re-simulation.
func BenchmarkTripleSim(b *testing.B) {
	c, err := synth.Benchmark("s953")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	p1, p3 := make([]tval.V, len(c.PIs)), make([]tval.V, len(c.PIs))
	for i := range p1 {
		p1[i], p3[i] = tval.V(r.Intn(2)), tval.V(r.Intn(2))
	}
	s := circuit.NewTripleSim(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(p1, p3)
	}
}
