// Motivation: quantifies why the paper enriches test sets with
// next-to-longest-path faults. Path length estimates are inexact; with
// per-line delay variation, a path placed in P1 can be longer than
// every path in P0, so a defect on it escapes a P0-only test set.
//
//	go run ./examples/motivation [circuit]
//
// The example enumerates the longest paths of a circuit, splits them
// into P0/P1 exactly as the ATPG does, and Monte-Carlo-samples per-line
// delay variation to estimate the escape risk — then shows the
// enrichment procedure closing the gap at no extra tests.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/yield"
)

func main() {
	name := "b09"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	p := experiments.DefaultParams()
	d, err := experiments.Prepare(name, p)
	if err != nil {
		log.Fatal(err)
	}
	c := d.Circuit

	p0Paths := distinctPaths(d, true)
	p1Paths := distinctPaths(d, false)
	fmt.Printf("%s: %d P0 paths (longest), %d P1 paths (next-to-longest)\n\n",
		name, len(p0Paths), len(p1Paths))

	// Two risks, increasing in strength:
	//   displacement — the single critical path lies in P1;
	//   boundary crossing — some P1 path is longer than some P0 path,
	//     i.e. the partition boundary inverted (the paper's "small
	//     errors in the computation of the path lengths can result in
	//     a path that was placed in P1 being longer than a path placed
	//     in P0").
	// The estimation-error model lets each line's true nominal delay
	// deviate from the unit estimate the selection used, with a small
	// manufacturing spread on top.
	fmt.Printf("%-34s %12s %12s\n", "delay model", "P(crit∈P1)", "P(boundary X)")
	for _, rel := range []float64{0.15, 0.30} {
		m := yield.UniformVariation(c, rel)
		disp, err := yield.DisplacementBySet(c, p0Paths, p1Paths, m, 1500, 1)
		if err != nil {
			log.Fatal(err)
		}
		cross, err := yield.BoundaryCrossProb(c, p0Paths, p1Paths, m, 1500, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("±%2.0f%% variation, exact estimates    %11.2f%% %11.2f%%\n",
			100*rel, 100*disp, 100*cross)
	}
	for _, mis := range []float64{0.10, 0.20, 0.30} {
		m := mismodel(c.NumLines(), mis, 42)
		disp, err := yield.DisplacementBySet(c, p0Paths, p1Paths, m, 1500, 1)
		if err != nil {
			log.Fatal(err)
		}
		cross, err := yield.BoundaryCrossProb(c, p0Paths, p1Paths, m, 1500, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("±%2.0f%% estimation error per line     %11.2f%% %11.2f%%\n",
			100*mis, 100*disp, 100*cross)
	}

	// What the enrichment buys against exactly that risk.
	basic := core.Generate(c, d.P0, core.Config{Heuristic: core.ValueBased, Seed: p.Seed})
	all := d.All()
	accidental, err := bitsim.Count(c, basic.Tests, all)
	if err != nil {
		log.Fatal(err)
	}
	er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: p.Seed})
	fmt.Printf("\nP1 coverage: accidental %d/%d -> enriched %d/%d at %+d tests\n",
		accidental-basic.DetectedCount, len(d.P1),
		er.DetectedP1Count, len(d.P1),
		len(er.Tests)-len(basic.Tests))
}

// distinctPaths extracts the unique paths of P0 or P1.
func distinctPaths(d *experiments.CircuitData, p0 bool) [][]int {
	set := d.P1
	if p0 {
		set = d.P0
	}
	seen := make(map[string]bool)
	var out [][]int
	for i := range set {
		k := set[i].Fault.Key()[3:]
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, set[i].Fault.Path)
	}
	return out
}

// mismodel builds a delay model whose per-line true nominal deviates
// from the unit estimate by up to ±mis (deterministic in the seed),
// with a small ±5% manufacturing spread on top.
func mismodel(lines int, mis float64, seed int64) yield.Model {
	r := rand.New(rand.NewSource(seed))
	m := make(yield.Model, lines)
	for i := range m {
		nominal := 1 + mis*(2*r.Float64()-1)
		m[i] = yield.Uniform{Lo: nominal * 0.95, Hi: nominal * 1.05}
	}
	return m
}
