// Package tdf layers the classic transition (gate delay) fault model
// on top of the path delay fault machinery.
//
// A transition fault is a line that is slow to rise or slow to fall,
// regardless of which path the transition takes. A robust path delay
// test for a path through the line, whose on-path transition at the
// line has the right polarity, detects the transition fault under any
// gross-enough delay defect — so tests are generated by targeting, for
// every line, one of the longest paths through it (the Li–Reddy–Sahni
// cover), and polarity is established by simulation of the generated
// test. Coverage reported here is therefore conservative: a fault may
// also be detectable through paths the cover does not include.
package tdf

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/tval"
)

// Fault is a transition fault on a line.
type Fault struct {
	Line int
	Dir  faults.Direction // transition that is slow at the line
}

// AllFaults returns the two transition faults of every line.
func AllFaults(c *circuit.Circuit) []Fault {
	out := make([]Fault, 0, 2*len(c.Lines))
	for id := range c.Lines {
		out = append(out,
			Fault{Line: id, Dir: faults.SlowToRise},
			Fault{Line: id, Dir: faults.SlowToFall})
	}
	return out
}

// Config parameterizes transition fault test generation.
type Config struct {
	Seed  int64
	Model delay.Model // nil = unit delays
	// Core forwards to the underlying path delay fault ATPG.
	Core core.Config
}

// Result reports a transition fault run.
type Result struct {
	Tests []circuit.TwoPattern
	// Detected is parallel to the fault list passed to Generate.
	Detected      []bool
	DetectedCount int
	// Surrogates counts the distinct path delay faults targeted.
	Surrogates int
}

// Generate builds a test set for the given transition faults. For each
// fault it targets both polarities of the covering longest path
// through the line (the right polarity depends on the inversion parity
// of the path prefix and is resolved by simulation); the surrogate
// path delay faults are deduplicated and handed to the PDF ATPG, and
// detection is mapped back per transition fault.
func Generate(c *circuit.Circuit, tfs []Fault, cfg Config) *Result {
	if cfg.Model == nil {
		cfg.Model = delay.Unit{}
	}
	cover := pathenum.LineCover(c, cfg.Model)
	// Path through every line, by line: LineCover returns faults of
	// complete paths; index them per line.
	pathThrough := make([][]int, len(c.Lines))
	for i := range cover {
		for _, l := range cover[i].Path {
			if pathThrough[l] == nil {
				pathThrough[l] = cover[i].Path
			}
		}
	}

	// Surrogate PDF faults: both directions of every covering path
	// that hosts at least one requested transition fault.
	type surrogateKey string
	surrIndex := make(map[surrogateKey]int)
	var surrogates []robust.FaultConditions
	addSurrogate := func(path []int, dir faults.Direction) int {
		f := faults.Fault{Path: path, Dir: dir,
			Length: delay.PathLength(c, cfg.Model, path)}
		key := surrogateKey(f.Key())
		if idx, ok := surrIndex[key]; ok {
			return idx
		}
		alts := robust.Conditions(c, &f)
		if len(alts) == 0 {
			surrIndex[key] = -1
			return -1
		}
		surrIndex[key] = len(surrogates)
		surrogates = append(surrogates, robust.FaultConditions{Fault: f, Alts: alts})
		return len(surrogates) - 1
	}
	// For every transition fault remember its candidate surrogates.
	cand := make([][]int, len(tfs))
	for i, tf := range tfs {
		path := pathThrough[tf.Line]
		if path == nil {
			continue
		}
		for _, dir := range []faults.Direction{faults.SlowToRise, faults.SlowToFall} {
			if idx := addSurrogate(path, dir); idx >= 0 {
				cand[i] = append(cand[i], idx)
			}
		}
	}

	gen := core.Generate(c, surrogates, mergeCfg(cfg))
	res := &Result{
		Tests:      gen.Tests,
		Detected:   make([]bool, len(tfs)),
		Surrogates: len(surrogates),
	}

	// A transition fault is detected when some test launches the
	// desired transition at the line while robustly covering a
	// surrogate through it. Simulate each test once and check.
	want := make([]tval.Triple, 2)
	want[faults.SlowToRise] = tval.R
	want[faults.SlowToFall] = tval.F
	for _, tp := range gen.Tests {
		sim := tp.Simulate(c)
		for i, tf := range tfs {
			if res.Detected[i] {
				continue
			}
			if sim[tf.Line] != want[tf.Dir] {
				continue
			}
			for _, si := range cand[i] {
				if surrogates[si].DetectedBy(sim) {
					res.Detected[i] = true
					break
				}
			}
		}
	}
	for _, d := range res.Detected {
		if d {
			res.DetectedCount++
		}
	}
	return res
}

func mergeCfg(cfg Config) core.Config {
	out := cfg.Core
	if out.Seed == 0 {
		out.Seed = cfg.Seed
	}
	if out.Heuristic == core.Uncompacted {
		out.Heuristic = core.ValueBased
	}
	return out
}
