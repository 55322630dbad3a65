package main

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/testio"
)

// refSets are the prepared fault sets of one (circuit, NP, NP0): the
// independent reference the output checks simulate against. Preparation
// does not depend on the job seed, so one refSets serves every job of
// that shape.
type refSets struct {
	c      *circuit.Circuit
	p0, p1 []robust.FaultConditions
	all    []robust.FaultConditions
}

// refCache memoizes refSets per spec shape. It is used by one goroutine
// at a time (checks run after the timed phase).
type refCache map[string]*refSets

func (rc refCache) get(spec engine.Spec) (*refSets, error) {
	key := fmt.Sprintf("%s/%d/%d", spec.Circuit, spec.NP, spec.NP0)
	if r, ok := rc[key]; ok {
		return r, nil
	}
	d, err := experiments.Prepare(spec.Circuit, experiments.Params{NP: spec.NP, NP0: spec.NP0, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	r := &refSets{c: d.Circuit, p0: d.P0, p1: d.P1, all: d.All()}
	rc[key] = r
	return r, nil
}

// coverage is the figure-of-merit part of one result.
type coverage struct {
	tests            int
	p0Det, p0Targets int
	p1Det, p1Targets int
	detected         int
}

func (c *coverage) add(o coverage) {
	c.tests += o.tests
	c.p0Det += o.p0Det
	c.p0Targets += o.p0Targets
	c.p1Det += o.p1Det
	c.p1Targets += o.p1Targets
	c.detected += o.detected
}

// resultCoverage reads a result's coverage. Generate jobs do not
// measure P1 on its own, so they count towards P0 and the total only.
func resultCoverage(res *engine.Result) coverage {
	cv := coverage{tests: res.TestCount, p0Targets: res.P0Targets}
	switch res.Kind {
	case engine.KindEnrich:
		cv.p0Det, cv.p1Det, cv.p1Targets = res.P0Detected, res.P1Detected, res.P1Targets
		cv.detected = res.AllDetected
	case engine.KindGenerate:
		cv.p0Det, cv.detected = res.P0Detected, res.AllDetected
	case engine.KindFaultSim:
		cv.p1Targets = res.P1Targets
		for i, fd := range res.FirstDetect {
			if fd < 0 {
				continue
			}
			if i < res.P0Targets {
				cv.p0Det++
			} else {
				cv.p1Det++
			}
		}
		cv.detected = res.Detected
	}
	return cv
}

// parseTests parses a result's serialized tests for circuit c.
func parseTests(c *circuit.Circuit, tests []string) ([]circuit.TwoPattern, error) {
	return testio.ReadTests(strings.NewReader(strings.Join(tests, "\n")), len(c.PIs))
}

// checkResult re-verifies a finished job with the word-parallel
// simulator, which the engine does not use: the detections it reports
// must be exactly what its tests detect on the reference fault sets.
func checkResult(refs refCache, spec engine.Spec, v engine.JobView) error {
	if v.Status != engine.StatusDone || v.Result == nil {
		return fmt.Errorf("%s: status %s: %s", specKey(spec), v.Status, v.Error)
	}
	res := v.Result
	ref, err := refs.get(spec)
	if err != nil {
		return err
	}
	if res.P0Size != len(ref.p0) || res.P1Size != len(ref.p1) {
		return fmt.Errorf("%s: fault sets %d/%d, reference %d/%d", specKey(spec), res.P0Size, res.P1Size, len(ref.p0), len(ref.p1))
	}
	tests, err := parseTests(ref.c, res.Tests)
	if err != nil {
		return fmt.Errorf("%s: %w", specKey(spec), err)
	}
	first, err := bitsim.Run(ref.c, tests, ref.all)
	if err != nil {
		return fmt.Errorf("%s: bitsim: %w", specKey(spec), err)
	}
	var p0, p1 int
	for i, fd := range first {
		switch {
		case fd < 0:
		case i < len(ref.p0):
			p0++
		default:
			p1++
		}
	}
	switch res.Kind {
	case engine.KindEnrich:
		if p0 != res.P0Detected || p1 != res.P1Detected {
			return fmt.Errorf("%s: job reports P0 %d P1 %d, bitsim finds %d %d", specKey(spec), res.P0Detected, res.P1Detected, p0, p1)
		}
	case engine.KindGenerate:
		if p0 != res.P0Detected || p0+p1 != res.AllDetected {
			return fmt.Errorf("%s: job reports P0 %d all %d, bitsim finds %d %d", specKey(spec), res.P0Detected, res.AllDetected, p0, p0+p1)
		}
	case engine.KindFaultSim:
		if !slices.Equal(first, res.FirstDetect) {
			return fmt.Errorf("%s: first-detect indices differ from bitsim", specKey(spec))
		}
	}
	return nil
}

// counters are the exact work counters of the direct layer calls,
// summed over the jobs of a traced run.
type counters struct {
	PathenumPaths, PathenumExtensions int
	ScreenEliminated                  int
	PartitionP0, PartitionP1          int

	CoreSecondaryAccepts, CoreSecondaryRejects int
	CoreP1Accepts, CoreCheapAccepts            int
	CoreRegenerations, CorePrimaryAborts       int

	JustifyCalls, JustifySuccesses, JustifyProbes, JustifyDecisions int

	FaultsimTests, FaultsimFaults, FaultsimDetected int
}

func (c *counters) add(o counters) {
	c.PathenumPaths += o.PathenumPaths
	c.PathenumExtensions += o.PathenumExtensions
	c.ScreenEliminated += o.ScreenEliminated
	c.PartitionP0 += o.PartitionP0
	c.PartitionP1 += o.PartitionP1
	c.CoreSecondaryAccepts += o.CoreSecondaryAccepts
	c.CoreSecondaryRejects += o.CoreSecondaryRejects
	c.CoreP1Accepts += o.CoreP1Accepts
	c.CoreCheapAccepts += o.CoreCheapAccepts
	c.CoreRegenerations += o.CoreRegenerations
	c.CorePrimaryAborts += o.CorePrimaryAborts
	c.JustifyCalls += o.JustifyCalls
	c.JustifySuccesses += o.JustifySuccesses
	c.JustifyProbes += o.JustifyProbes
	c.JustifyDecisions += o.JustifyDecisions
	c.FaultsimTests += o.FaultsimTests
	c.FaultsimFaults += o.FaultsimFaults
	c.FaultsimDetected += o.FaultsimDetected
}

// direct is the outcome of calling the layers directly for one spec.
type direct struct {
	c      *circuit.Circuit
	p0, p1 []robust.FaultConditions
	res    *engine.Result // the fields the direct calls reproduce
	cnt    counters
}

// runPipeline calls the prepare layers in pipeline order, one span each.
// compute additionally runs the procedure the job kind names; a cache
// hit skips it, as the engine does.
func runPipeline(ctx context.Context, rec *Recorder, job, parent int, spec engine.Spec, compute bool) (*direct, error) {
	d := &direct{res: &engine.Result{Kind: spec.Kind}}
	var err error
	rec.Do(job, parent, "load", func() { d.c, err = experiments.LoadCircuit(spec.Circuit) })
	if err != nil {
		return nil, err
	}
	var enum *pathenum.Result
	rec.Do(job, parent, "pathenum", func() {
		enum, err = pathenum.Enumerate(d.c, pathenum.Config{MaxFaults: spec.NP, Mode: pathenum.DistancePruned})
	})
	if err != nil {
		return nil, err
	}
	var kept []robust.FaultConditions
	var eliminated int
	rec.Do(job, parent, "screen", func() { kept, eliminated = robust.Screen(d.c, enum.Faults) })
	rec.Do(job, parent, "partition", func() {
		raw := make([]faults.Fault, len(kept))
		for i := range kept {
			raw[i] = kept[i].Fault
		}
		p0f, _, _ := faults.Partition(raw, spec.NP0)
		d.p0, d.p1 = kept[:len(p0f)], kept[len(p0f):]
	})
	d.res.Enumerated, d.res.Eliminated = len(enum.Faults), eliminated
	d.res.P0Size, d.res.P1Size = len(d.p0), len(d.p1)
	d.cnt.PathenumPaths = distinctPaths(enum.Faults)
	d.cnt.PathenumExtensions = enum.Stats.Extensions
	d.cnt.ScreenEliminated = eliminated
	d.cnt.PartitionP0, d.cnt.PartitionP1 = len(d.p0), len(d.p1)
	if !compute {
		return d, nil
	}
	all := append(append([]robust.FaultConditions(nil), d.p0...), d.p1...)
	cfg := core.Config{Heuristic: core.ValueBased, Seed: spec.Seed}
	switch spec.Kind {
	case engine.KindEnrich:
		var er *core.EnrichResult
		rec.Do(job, parent, "core", func() { er, err = core.EnrichCtx(ctx, d.c, d.p0, d.p1, cfg) })
		if err != nil {
			return nil, err
		}
		d.res.Tests = testStrings(er.Tests)
		d.res.P0Detected, d.res.P1Detected = er.DetectedP0Count, er.DetectedP1Count
		d.cnt.addCore(er.SecondaryAccepts, er.SecondaryRejects, er.CheapAccepts, er.PrimaryAborts,
			er.SecondaryAcceptsBySet, er.RegenPerTest, er.JustifyStats.Calls, er.JustifyStats.Successes,
			er.JustifyStats.Probes, er.JustifyStats.Decisions)
	case engine.KindGenerate:
		var gr *core.Result
		rec.Do(job, parent, "core", func() { gr, err = core.GenerateCtx(ctx, d.c, d.p0, cfg) })
		if err != nil {
			return nil, err
		}
		d.res.Tests = testStrings(gr.Tests)
		d.res.P0Detected = gr.DetectedCount
		d.cnt.addCore(gr.SecondaryAccepts, gr.SecondaryRejects, gr.CheapAccepts, gr.PrimaryAborts,
			nil, gr.RegenPerTest, gr.JustifyStats.Calls, gr.JustifyStats.Successes,
			gr.JustifyStats.Probes, gr.JustifyStats.Decisions)
		rec.Do(job, parent, "faultsim", func() { d.res.AllDetected, err = faultsim.CountParallel(ctx, d.c, gr.Tests, all, 1) })
		if err != nil {
			return nil, err
		}
		d.cnt.FaultsimTests, d.cnt.FaultsimFaults, d.cnt.FaultsimDetected = len(gr.Tests), len(all), d.res.AllDetected
	case engine.KindFaultSim:
		var tests []circuit.TwoPattern
		rec.Do(job, parent, "testio", func() { tests, err = parseTests(d.c, spec.Tests) })
		if err != nil {
			return nil, err
		}
		rec.Do(job, parent, "faultsim", func() { d.res.FirstDetect, err = faultsim.RunParallel(ctx, d.c, tests, all, 1) })
		if err != nil {
			return nil, err
		}
		for _, fd := range d.res.FirstDetect {
			if fd >= 0 {
				d.res.Detected++
			}
		}
		d.cnt.FaultsimTests, d.cnt.FaultsimFaults, d.cnt.FaultsimDetected = len(tests), len(all), d.res.Detected
	}
	return d, nil
}

func (c *counters) addCore(accepts, rejects, cheap, aborts int, bySet, regen []int, calls, successes, probes, decisions int) {
	c.CoreSecondaryAccepts += accepts
	c.CoreSecondaryRejects += rejects
	c.CoreCheapAccepts += cheap
	c.CorePrimaryAborts += aborts
	if len(bySet) > 1 {
		c.CoreP1Accepts += bySet[1]
	}
	for _, r := range regen {
		c.CoreRegenerations += r
	}
	c.JustifyCalls += calls
	c.JustifySuccesses += successes
	c.JustifyProbes += probes
	c.JustifyDecisions += decisions
}

// reproduces reports whether the direct calls computed what the job
// returned. If they did not, their spans timed different work.
func (d *direct) reproduces(res *engine.Result, computed bool) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	got := d.res
	if got.Enumerated != res.Enumerated || got.Eliminated != res.Eliminated ||
		got.P0Size != res.P0Size || got.P1Size != res.P1Size {
		return fmt.Errorf("prepare differs: enumerated %d/%d eliminated %d/%d P0 %d/%d P1 %d/%d",
			got.Enumerated, res.Enumerated, got.Eliminated, res.Eliminated, got.P0Size, res.P0Size, got.P1Size, res.P1Size)
	}
	if !computed {
		return nil
	}
	switch res.Kind {
	case engine.KindEnrich, engine.KindGenerate:
		if !slices.Equal(got.Tests, res.Tests) || got.P0Detected != res.P0Detected || got.P1Detected != res.P1Detected {
			return fmt.Errorf("tests or coverage differ: %d/%d tests, P0 %d/%d, P1 %d/%d",
				len(got.Tests), len(res.Tests), got.P0Detected, res.P0Detected, got.P1Detected, res.P1Detected)
		}
		if res.Kind == engine.KindGenerate && got.AllDetected != res.AllDetected {
			return fmt.Errorf("P0∪P1 detections differ: %d/%d", got.AllDetected, res.AllDetected)
		}
	case engine.KindFaultSim:
		if !slices.Equal(got.FirstDetect, res.FirstDetect) {
			return fmt.Errorf("first-detect indices differ")
		}
	}
	return nil
}

func testStrings(tps []circuit.TwoPattern) []string {
	out := make([]string, len(tps))
	for i, tp := range tps {
		out[i] = tp.String()
	}
	return out
}

// distinctPaths counts the distinct paths among enumerated faults (a
// path usually carries a rising and a falling fault).
func distinctPaths(fs []faults.Fault) int {
	seen := make(map[string]struct{}, len(fs))
	for i := range fs {
		seen[fmt.Sprint(fs[i].Path)] = struct{}{}
	}
	return len(seen)
}
