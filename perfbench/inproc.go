package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// inprocBench is a workload of one client calling engine.RunJob in
// process with the cache bypassed: enrich-cold and grade-sim.
type inprocBench struct {
	specs []engine.Spec
	warm  engine.Spec
	e     *engine.Engine
	refs  refCache
}

// warmSeed seeds the set-up's warm job. It does not depend on the
// workload seed, so set-up does the same work on every seed.
const warmSeed = 1

// newEnrichCold: s953 enrichment jobs, where compaction dominates.
func newEnrichCold(seed int64, seconds int) *inprocBench {
	return &inprocBench{
		specs: enrichSpecs(seed, jobCount(enrichRate, seconds)),
		warm:  enrichSpec(warmSeed),
	}
}

// newGradeSim: fault-simulation jobs grading random tests on s1423,
// where preparation and fault simulation dominate.
func newGradeSim(seed int64, seconds int) (*inprocBench, error) {
	c, err := experiments.LoadCircuit(gradeCircuit)
	if err != nil {
		return nil, err
	}
	return &inprocBench{
		specs: gradeSpecs(c, seed, jobCount(gradeRate, seconds)),
		warm:  gradeSpec(c, rand.New(rand.NewSource(warmSeed))),
	}, nil
}

func (b *inprocBench) setUp() (string, error) {
	b.e = engine.New(engine.Config{Workers: 1, SimWorkers: 1})
	b.refs = refCache{}
	if _, err := b.refs.get(b.warm); err != nil {
		return "", err
	}
	v, err := b.e.RunJob(context.Background(), b.warm)
	if err == nil {
		err = checkResult(b.refs, b.warm, v)
	}
	if err != nil {
		return "", fmt.Errorf("warm job: %w", err)
	}
	return strings.Join(v.Result.Tests, "\n") + fmt.Sprint(v.Result.FirstDetect), nil
}

func (b *inprocBench) tearDown() {
	if b.e != nil {
		b.e.Close()
		b.e = nil
	}
}

func (b *inprocBench) timed() (*phase, error) {
	ctx := context.Background()
	ph := &phase{outs: make([]outcome, len(b.specs)), class: func(outcome) bool { return true }}
	sp := newSpeed()
	for i, spec := range b.specs {
		o := &ph.outs[i]
		ph.mem.add(measureMem(func() {
			t := time.Now()
			o.view, o.err = b.e.RunJob(ctx, spec)
			o.raw = time.Since(t).Seconds()
		}))
		o.lat, _ = sp.next(o.raw)
		ph.elapsed += o.lat
	}
	ph.speed = sp.factors
	for i := range ph.outs {
		if ph.outs[i].err == nil {
			ph.outs[i].err = checkResult(b.refs, b.specs[i], ph.outs[i].view)
		}
	}
	return ph, nil
}

func (b *inprocBench) traced(rec *Recorder) (*tracedPhase, error) {
	ctx := context.Background()
	tp := &tracedPhase{jobs: len(b.specs), sysSpan: "engine", overheads: map[string][]float64{}}
	for i, spec := range b.specs {
		root, end := rec.Root(i, "job")
		var v engine.JobView
		var err error
		rec.Do(i, root, "engine", func() { v, err = b.e.RunJob(ctx, spec) })
		var d *direct
		if err == nil {
			d, err = runPipeline(ctx, rec, i, root, spec, true)
		}
		end()
		if err == nil {
			err = d.reproduces(v.Result, true)
		}
		if err != nil {
			tp.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced job %d (%s): %v\n", i, specKey(spec), err)
			continue
		}
		tp.counters.add(d.cnt)
	}
	tp.spans = rec.Spans()
	tp.overheads["engine.overhead_s"] = outerMinusInner(tp.spans, "engine", engineLayers)
	return tp, nil
}

// engineLayers are the direct-call spans of the work the engine itself
// does for a job; engine.overhead_s is the engine call minus these.
var engineLayers = map[string]bool{
	"load": true, "pathenum": true, "screen": true, "partition": true,
	"core": true, "testio": true, "faultsim": true,
}

// outerMinusInner returns, per job with both an outer-named span and
// inner spans, the outer duration minus the summed inner durations, in
// seconds.
func outerMinusInner(spans []Span, outer string, inner map[string]bool) []float64 {
	outerDur := map[int]int64{}
	innerDur := map[int]int64{}
	for _, s := range spans {
		switch {
		case s.Name == outer:
			outerDur[s.Job] += s.End - s.Start
		case inner[s.Name]:
			innerDur[s.Job] += s.End - s.Start
		}
	}
	var out []float64
	for job, d := range outerDur {
		if in, ok := innerDur[job]; ok {
			out = append(out, float64(d-in)/1e9)
		}
	}
	return out
}
