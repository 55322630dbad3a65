package faultsim_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/robust"
)

// genSetup builds the realistic Count workload: an n-detection-style
// test set (the union of enrichment runs under several seeds, as in
// the n-detection extension the engine targets) simulated against the
// full enumerated fault set. Most faults are detected within the first
// seed's tests, so short-circuiting skips most of the set.
func genSetup(b *testing.B) (*circuit.Circuit, []circuit.TwoPattern, []robust.FaultConditions) {
	b.Helper()
	d, err := experiments.Prepare("s1196", experiments.Params{NP: 4000, NP0: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var tests []circuit.TwoPattern
	for seed := int64(1); seed <= 4; seed++ {
		res := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: seed})
		tests = append(tests, res.Tests...)
	}
	return d.Circuit, tests, d.All()
}

// countFullScan is the no-short-circuit baseline: every (test, fault)
// pair is checked, as a naive Count would.
func countFullScan(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) int {
	detected := make([]bool, len(fcs))
	for ti := range tests {
		sim := tests[ti].Simulate(c)
		for fi := range fcs {
			if fcs[fi].DetectedBy(sim) {
				detected[fi] = true
			}
		}
	}
	n := 0
	for _, d := range detected {
		if d {
			n++
		}
	}
	return n
}

// The short-circuit satellite's benchmark: Count drops each fault at
// its first detection instead of scanning it against every test.
func BenchmarkCountFullScan(b *testing.B) {
	c, tests, fcs := genSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countFullScan(c, tests, fcs)
	}
}

func BenchmarkCountShortCircuit(b *testing.B) {
	c, tests, fcs := genSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faultsim.Count(c, tests, fcs)
	}
}

func TestCountMatchesFullScan(t *testing.T) {
	d, err := experiments.Prepare("s641", experiments.Params{NP: 400, NP0: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: 1})
	all := d.All()
	want := countFullScan(d.Circuit, res.Tests, all)
	if got := faultsim.Count(d.Circuit, res.Tests, all); got != want {
		t.Errorf("Count = %d, full scan = %d", got, want)
	}
}
