package core

import (
	"repro/internal/circuit"
	"repro/internal/robust"
)

// StaticCompact applies classic reverse-order static compaction to a
// finished test set: tests are fault simulated in reverse generation
// order, and a test is kept only if it detects a target fault no
// later-kept test detects. Coverage of the fault set is preserved
// exactly; the returned tests keep their original relative order.
//
// Dynamic compaction (the paper's secondary-target mechanism) already
// produces compact sets, so the expected additional gain is small —
// that is itself a useful check, and the pass is valuable for test
// sets produced by the uncompacted procedure.
func StaticCompact(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) []circuit.TwoPattern {
	if len(tests) == 0 {
		return nil
	}
	detected := make([]bool, len(fcs))
	keep := make([]bool, len(tests))
	for ti := len(tests) - 1; ti >= 0; ti-- {
		sim := tests[ti].Simulate(c)
		useful := false
		for fi := range fcs {
			if detected[fi] {
				continue
			}
			if fcs[fi].DetectedBy(sim) {
				detected[fi] = true
				useful = true
			}
		}
		keep[ti] = useful
	}
	out := make([]circuit.TwoPattern, 0, len(tests))
	for ti := range tests {
		if keep[ti] {
			out = append(out, tests[ti])
		}
	}
	return out
}
