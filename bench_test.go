// Package repro_test benchmarks every experiment of the DATE 2002
// paper's evaluation (Tables 1-7) plus the ablations called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics (tests generated, faults
// detected, ...) through b.ReportMetric in addition to wall time.
// Budgets are scaled down so the whole suite completes in minutes; the
// cmd/tables tool runs the same experiments at any budget.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/timingsim"
)

// benchParams are the scaled budgets used by the benchmark suite.
var benchParams = experiments.Params{NP: 1200, NP0: 200, Seed: 1}

// prepared caches the expensive enumerate+screen+partition step per
// circuit across benchmarks.
var prepared = map[string]*experiments.CircuitData{}

func prep(b *testing.B, name string) *experiments.CircuitData {
	b.Helper()
	if d, ok := prepared[name]; ok {
		return d
	}
	d, err := experiments.Prepare(name, benchParams)
	if err != nil {
		b.Fatal(err)
	}
	prepared[name] = d
	return d
}

// BenchmarkTable1Enumeration reruns the paper's s27 walk-through:
// moderate path enumeration under a 20-path budget.
func BenchmarkTable1Enumeration(b *testing.B) {
	c := bench.S27()
	var paths int
	for i := 0; i < b.N; i++ {
		res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 40, Mode: pathenum.Moderate})
		if err != nil {
			b.Fatal(err)
		}
		paths = len(res.Faults) / 2
	}
	b.ReportMetric(float64(paths), "final-paths")
}

// BenchmarkTable2Profile builds the N_p(L_i) profile of the s1423
// stand-in (Table 2).
func BenchmarkTable2Profile(b *testing.B) {
	c, err := experiments.LoadCircuit("s1423")
	if err != nil {
		b.Fatal(err)
	}
	var classes int
	for i := 0; i < b.N; i++ {
		res, err := pathenum.Enumerate(c, pathenum.Config{
			MaxFaults: benchParams.NP, Mode: pathenum.DistancePruned,
		})
		if err != nil {
			b.Fatal(err)
		}
		classes = len(faults.Profile(res.Faults))
	}
	b.ReportMetric(float64(classes), "length-classes")
}

// BenchmarkTable3And4Basic runs the basic procedure on the b09
// stand-in under each heuristic, reporting the Table 3 (detected) and
// Table 4 (tests) quantities.
func BenchmarkTable3And4Basic(b *testing.B) {
	d := prep(b, "b09")
	for _, h := range core.Heuristics {
		h := h
		b.Run(h.String(), func(b *testing.B) {
			var detected, tests int
			for i := 0; i < b.N; i++ {
				res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: h, Seed: benchParams.Seed})
				detected, tests = res.DetectedCount, len(res.Tests)
			}
			b.ReportMetric(float64(detected), "P0-detected")
			b.ReportMetric(float64(tests), "tests")
		})
	}
}

// BenchmarkTable5Simulation measures the accidental P0∪P1 detection of
// a precomputed basic value-based test set (Table 5).
func BenchmarkTable5Simulation(b *testing.B) {
	d := prep(b, "b09")
	res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: benchParams.Seed})
	all := d.All()
	var detected int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detected = faultsim.Count(d.Circuit, res.Tests, all)
	}
	b.ReportMetric(float64(detected), "P0P1-detected")
	b.ReportMetric(float64(len(all)), "P0P1-faults")
}

// BenchmarkTable6Enrichment runs the enrichment procedure (Table 6).
func BenchmarkTable6Enrichment(b *testing.B) {
	d := prep(b, "b09")
	var tests, p0det, alldet int
	for i := 0; i < b.N; i++ {
		er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: benchParams.Seed})
		tests = len(er.Tests)
		p0det = er.DetectedP0Count
		alldet = er.DetectedP0Count + er.DetectedP1Count
	}
	b.ReportMetric(float64(tests), "tests")
	b.ReportMetric(float64(p0det), "P0-detected")
	b.ReportMetric(float64(alldet), "P0P1-detected")
}

// BenchmarkTable7Ratio measures the run time ratio enrichment / basic
// (Table 7); the ratio is reported as a metric.
func BenchmarkTable7Ratio(b *testing.B) {
	d := prep(b, "b09")
	var ratio float64
	for i := 0; i < b.N; i++ {
		row := experiments.EnrichTable(d, benchParams)
		ratio = row.Ratio
	}
	b.ReportMetric(ratio, "RTenrich/RTbasic")
}

// --- Ablations (DESIGN.md section 5) --------------------------------------

// BenchmarkAblationEnumerationMode compares the moderate and the
// distance-pruned enumeration on s27, where both apply.
func BenchmarkAblationEnumerationMode(b *testing.B) {
	c := bench.S27()
	for _, mode := range []pathenum.Mode{pathenum.Moderate, pathenum.DistancePruned} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var ext int
			for i := 0; i < b.N; i++ {
				res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 40, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				ext = res.Stats.Extensions
			}
			b.ReportMetric(float64(ext), "extensions")
		})
	}
}

// BenchmarkAblationDistancePruning shows that the distance-pruned mode
// handles a path-rich circuit under a tight budget (the moderate mode
// cannot: it exceeds its extension cap — reported as a metric of 1).
func BenchmarkAblationDistancePruning(b *testing.B) {
	c, err := experiments.LoadCircuit("s1196")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("distance-pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pathenum.Enumerate(c, pathenum.Config{
				MaxFaults: 400, Mode: pathenum.DistancePruned,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("moderate-capped", func(b *testing.B) {
		failures := 0
		for i := 0; i < b.N; i++ {
			if _, err := pathenum.Enumerate(c, pathenum.Config{
				MaxFaults: 400, Mode: pathenum.Moderate, MaxExtensions: 200000,
			}); err != nil {
				failures++
			}
		}
		b.ReportMetric(float64(failures)/float64(b.N), "failure-rate")
	})
}

// BenchmarkAblationCheapAccept compares the secondary-fault fast path
// (accept without regeneration when the current test already covers
// the fault) against the paper-literal regenerate-always behaviour.
func BenchmarkAblationCheapAccept(b *testing.B) {
	d := prep(b, "b03")
	for _, disable := range []bool{false, true} {
		name := "fast-path"
		if disable {
			name = "regenerate-always"
		}
		disable := disable
		b.Run(name, func(b *testing.B) {
			var detected int
			for i := 0; i < b.N; i++ {
				res := core.Generate(d.Circuit, d.P0, core.Config{
					Heuristic: core.ValueBased, Seed: benchParams.Seed,
					DisableCheapAccept: disable,
				})
				detected = res.DetectedCount
			}
			b.ReportMetric(float64(detected), "P0-detected")
		})
	}
}

// BenchmarkAblationDirtyTracking compares probe scheduling with
// watched probes against paper-literal full sweeps.
func BenchmarkAblationDirtyTracking(b *testing.B) {
	d := prep(b, "b03")
	for _, disable := range []bool{false, true} {
		name := "watched-probes"
		if disable {
			name = "full-sweeps"
		}
		disable := disable
		b.Run(name, func(b *testing.B) {
			var probes int
			for i := 0; i < b.N; i++ {
				res := core.Generate(d.Circuit, d.P0, core.Config{
					Heuristic: core.ValueBased, Seed: benchParams.Seed,
					Justify: justify.Config{DisableDirtyTracking: disable},
				})
				probes = res.JustifyStats.Probes
			}
			b.ReportMetric(float64(probes), "probes")
		})
	}
}

// BenchmarkAblationImplicationSeed compares justification with and
// without seeding from the cube's implications.
func BenchmarkAblationImplicationSeed(b *testing.B) {
	d := prep(b, "b03")
	for _, disable := range []bool{false, true} {
		name := "implication-seed"
		if disable {
			name = "no-seed"
		}
		disable := disable
		b.Run(name, func(b *testing.B) {
			var detected int
			for i := 0; i < b.N; i++ {
				res := core.Generate(d.Circuit, d.P0, core.Config{
					Heuristic: core.ValueBased, Seed: benchParams.Seed,
					Justify: justify.Config{DisableImplicationSeed: disable},
				})
				detected = res.DetectedCount
			}
			b.ReportMetric(float64(detected), "P0-detected")
		})
	}
}

// BenchmarkAblationMultiSubset compares two-set enrichment against a
// three-set partition of the same fault population.
func BenchmarkAblationMultiSubset(b *testing.B) {
	d := prep(b, "b09")
	all := d.All()
	raw := make([]faults.Fault, len(all))
	for i := range all {
		raw[i] = all[i].Fault
	}
	b.Run("two-sets", func(b *testing.B) {
		var det int
		for i := 0; i < b.N; i++ {
			er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: benchParams.Seed})
			det = er.DetectedP0Count + er.DetectedP1Count
		}
		b.ReportMetric(float64(det), "detected")
	})
	b.Run("three-sets", func(b *testing.B) {
		parts := faults.PartitionK(raw, []int{benchParams.NP0, 2 * benchParams.NP0})
		sets := make([][]robust.FaultConditions, len(parts))
		off := 0
		for s := range parts {
			sets[s] = all[off : off+len(parts[s])]
			off += len(parts[s])
		}
		var det int
		for i := 0; i < b.N; i++ {
			res := core.EnrichK(d.Circuit, sets, core.Config{Seed: benchParams.Seed})
			det = 0
			for _, n := range res.DetectedCounts {
				det += n
			}
		}
		b.ReportMetric(float64(det), "detected")
	})
}

// BenchmarkJustification measures raw justification throughput on the
// b09 stand-in's longest-path fault conditions.
func BenchmarkJustification(b *testing.B) {
	d := prep(b, "b09")
	j := justify.New(d.Circuit, justify.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Justify(&d.P0[i%len(d.P0)].Alts[0])
	}
}

// BenchmarkFaultSimulation measures robust fault simulation of one
// test over the full fault population.
func BenchmarkFaultSimulation(b *testing.B) {
	d := prep(b, "b09")
	all := d.All()
	j := justify.New(d.Circuit, justify.Config{Seed: 1})
	test, ok := j.Justify(&d.P0[0].Alts[0])
	if !ok {
		b.Fatal("justification failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := test.Simulate(d.Circuit)
		n := 0
		for f := range all {
			if all[f].DetectedBy(sim) {
				n++
			}
		}
	}
}

// BenchmarkScreening measures undetectable-fault elimination on b09
// (no XOR gates) and on the fault sets of the s953 enrichment and the
// s1423 grading workloads.
func BenchmarkScreening(b *testing.B) {
	for _, tc := range []struct {
		circuit string
		np      int
	}{{"b09", benchParams.NP}, {"s953", 1000}, {"s1423", 2000}} {
		b.Run(tc.circuit, func(b *testing.B) {
			c, err := experiments.LoadCircuit(tc.circuit)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pathenum.Enumerate(c, pathenum.Config{
				MaxFaults: tc.np, Mode: pathenum.DistancePruned,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				screenSink, _ = robust.Screen(c, res.Faults)
			}
		})
	}
}

// screenSink keeps BenchmarkScreening's result live.
var screenSink []robust.FaultConditions

// BenchmarkSynthGeneration measures stand-in circuit generation.
func BenchmarkSynthGeneration(b *testing.B) {
	p := synth.BenchmarkProfiles["s1423"]
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitParallelFaultSimulation compares the scalar and the
// 64-way word-parallel fault simulators on the same workload.
func BenchmarkBitParallelFaultSimulation(b *testing.B) {
	d := prep(b, "b09")
	all := d.All()
	res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: benchParams.Seed})
	b.Run("scalar", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = faultsim.Count(d.Circuit, res.Tests, all)
		}
		b.ReportMetric(float64(n), "detected")
	})
	b.Run("word-parallel", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			var err error
			n, err = bitsim.Count(d.Circuit, res.Tests, all)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "detected")
	})
}

// BenchmarkAblationBnBBackend compares the randomized simulation-based
// justification backend with the complete branch-and-bound backend
// inside the full basic procedure.
func BenchmarkAblationBnBBackend(b *testing.B) {
	d := prep(b, "b03")
	for _, useBnB := range []bool{false, true} {
		name := "randomized"
		if useBnB {
			name = "branch-and-bound"
		}
		useBnB := useBnB
		b.Run(name, func(b *testing.B) {
			var detected int
			for i := 0; i < b.N; i++ {
				res := core.Generate(d.Circuit, d.P0, core.Config{
					Heuristic: core.ValueBased, Seed: benchParams.Seed, UseBnB: useBnB,
				})
				detected = res.DetectedCount
			}
			b.ReportMetric(float64(detected), "P0-detected")
		})
	}
}

// BenchmarkTimingSimulation measures the event-driven timing simulator.
func BenchmarkTimingSimulation(b *testing.B) {
	d := prep(b, "b09")
	j := justify.New(d.Circuit, justify.Config{Seed: 1})
	test, ok := j.Justify(&d.P0[0].Alts[0])
	if !ok {
		b.Fatal("justification failed")
	}
	delays := timingsim.UniformDelays(d.Circuit, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timingsim.Simulate(d.Circuit, delays, test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineCoverSelection measures the Li-Reddy-Sahni line-cover
// path selection.
func BenchmarkLineCoverSelection(b *testing.B) {
	c, err := experiments.LoadCircuit("s1423")
	if err != nil {
		b.Fatal(err)
	}
	var n int
	for i := 0; i < b.N; i++ {
		n = len(pathenum.LineCover(c, nil))
	}
	b.ReportMetric(float64(n), "selected-faults")
}

// BenchmarkDiagnosis measures syndrome-based fault ranking.
func BenchmarkDiagnosis(b *testing.B) {
	d := prep(b, "b09")
	all := d.All()
	er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: benchParams.Seed})
	// Syndrome: tests detecting fault 0 fail.
	obs := make([]diagnose.Observation, len(er.Tests))
	for ti := range er.Tests {
		if faultsim.Detects(d.Circuit, er.Tests[ti], &all[0]) {
			obs[ti] = diagnose.Observation{Failed: true}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := diagnose.Diagnose(d.Circuit, er.Tests, all, obs)
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkAblationCollapse compares ATPG with and without subsumption
// collapsing of the target list (coverage measured over the full
// population either way).
func BenchmarkAblationCollapse(b *testing.B) {
	d := prep(b, "b03")
	reps, _ := robust.Collapse(d.P0)
	repSet := make([]robust.FaultConditions, len(reps))
	for i, r := range reps {
		repSet[i] = d.P0[r]
	}
	b.Run("full-targets", func(b *testing.B) {
		var cov int
		for i := 0; i < b.N; i++ {
			res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: 1})
			cov = faultsim.Count(d.Circuit, res.Tests, d.P0)
		}
		b.ReportMetric(float64(cov), "P0-covered")
		b.ReportMetric(float64(len(d.P0)), "targets")
	})
	b.Run("collapsed-targets", func(b *testing.B) {
		var cov int
		for i := 0; i < b.N; i++ {
			res := core.Generate(d.Circuit, repSet, core.Config{Heuristic: core.ValueBased, Seed: 1})
			cov = faultsim.Count(d.Circuit, res.Tests, d.P0)
		}
		b.ReportMetric(float64(cov), "P0-covered")
		b.ReportMetric(float64(len(repSet)), "targets")
	})
}
