// Package faultsim simulates two-pattern tests against path delay
// faults under the robust detection criterion.
//
// A test robustly detects a fault iff the values it assigns cover one
// of the fault's A(p) alternatives (Section 2.1 of the DATE 2002
// paper: assigning the values in A(p) is necessary and sufficient).
// The three-plane simulation is conservative about hazards, so a
// "stable" requirement is only satisfied by a provably glitch-free
// signal.
//
// This is the scalar simulator: one test at a time, with
// robust.FaultConditions.DetectedBy as the detection predicate (the
// one core's fault dropping, static compaction and diagnosis also
// call). Run is the reference that the word-parallel bitsim, which
// simulates whole test sets everywhere else, is tested against.
package faultsim

import (
	"context"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/robust"
)

// Detects simulates one test and reports whether it detects the fault.
func Detects(c *circuit.Circuit, test circuit.TwoPattern, fc *robust.FaultConditions) bool {
	return fc.DetectedBy(test.Simulate(c))
}

// Run simulates every test against every fault and returns, for each
// fault, the index of the first detecting test (-1 if none). Each
// fault is dropped after its first detection: detected faults are
// removed from the scan list, so a fault detected by test t costs
// nothing for tests after t.
func Run(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) []int {
	firstDet := make([]int, len(fcs))
	for i := range firstDet {
		firstDet[i] = -1
	}
	active := make([]int, len(fcs))
	for i := range active {
		active[i] = i
	}
	for ti := range tests {
		if len(active) == 0 {
			break
		}
		sim := tests[ti].Simulate(c)
		kept := active[:0]
		for _, fi := range active {
			if fcs[fi].DetectedBy(sim) {
				firstDet[fi] = ti
			} else {
				kept = append(kept, fi)
			}
		}
		active = kept
	}
	return firstDet
}

// Count returns how many faults the test set detects.
func Count(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) int {
	return bitsim.Detected(Run(c, tests, fcs))
}

// RunParallel forwards to bitsim.RunContext, the word-parallel
// simulator the engine runs; the result is identical to Run.
//
// Deprecated: call bitsim.RunContext. workers is ignored.
func RunParallel(ctx context.Context, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions, workers int) ([]int, error) {
	return bitsim.RunContext(ctx, c, tests, fcs)
}

// CountParallel is Count over bitsim.RunContext.
//
// Deprecated: call bitsim.RunContext. workers is ignored.
func CountParallel(ctx context.Context, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions, workers int) (int, error) {
	first, err := bitsim.RunContext(ctx, c, tests, fcs)
	return bitsim.Detected(first), err
}
