// Enrichment: the paper's headline experiment on one circuit — how
// many next-to-longest-path faults (P1) does a compact test set for
// the longest-path faults (P0) detect *accidentally*, versus when the
// enrichment procedure targets them explicitly at no extra tests.
//
//	go run ./examples/enrichment [circuit]
//
// The optional argument is a stand-in profile name (default b09).
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/experiments"
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
	fmt.Printf("%s: |P0| = %d (longest paths), |P1| = %d (next-to-longest)\n\n",
		name, len(d.P0), len(d.P1))

	// Basic compact test set for P0 only.
	basic := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: p.Seed})
	all := d.All()
	accidental, err := bitsim.Count(d.Circuit, basic.Tests, all)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("basic value-based procedure (targets P0 only):\n")
	fmt.Printf("  %4d tests, P0 detected %d/%d\n", len(basic.Tests), basic.DetectedCount, len(d.P0))
	fmt.Printf("  P0∪P1 detected (accidental): %d/%d\n\n", accidental, len(all))

	// Enrichment: same P0 objective, P1 detected "for free".
	er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: p.Seed})
	fmt.Printf("enrichment procedure (targets P0, opportunistically P1):\n")
	fmt.Printf("  %4d tests, P0 detected %d/%d\n", len(er.Tests), er.DetectedP0Count, len(d.P0))
	fmt.Printf("  P0∪P1 detected: %d/%d\n\n", er.DetectedP0Count+er.DetectedP1Count, len(all))

	extra := er.DetectedP0Count + er.DetectedP1Count - accidental
	fmt.Printf("=> %d additional faults detected with %+d tests\n",
		extra, len(er.Tests)-len(basic.Tests))
}
