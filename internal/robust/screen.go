package robust

import (
	"repro/internal/circuit"
	"repro/internal/faults"
)

// FaultConditions bundles a fault with its surviving A(p) alternatives.
type FaultConditions struct {
	Fault faults.Fault
	// Alts are the alternative requirement cubes; a test detects the
	// fault iff it satisfies at least one alternative. Non-empty for
	// every fault returned by Screen.
	Alts []Cube
}

// Screen computes A(p) for every fault and eliminates undetectable
// faults, in the two steps of Section 3.1:
//
//  1. faults whose conditions conflict directly (Conditions returns no
//     alternative);
//  2. faults whose conditions imply conflicting values on some line
//     (the implication fixpoint finds a contradiction for every
//     alternative).
//
// It returns the surviving faults with their alternatives, preserving
// input order, plus the number eliminated.
func Screen(c *circuit.Circuit, fs []faults.Fault) (kept []FaultConditions, eliminated int) {
	return ScreenWith(c, fs, Conditions)
}

// ConditionFunc generates the A(p) alternatives of a fault; Conditions
// (robust) and NonRobustConditions both satisfy it.
type ConditionFunc func(*circuit.Circuit, *faults.Fault) []Cube

// ScreenWith is Screen under an arbitrary sensitization criterion:
// pass NonRobustConditions to build the target list of a non-robust
// ATPG run. The whole downstream flow (justification, compaction,
// enrichment, fault simulation) is condition-agnostic, so the returned
// FaultConditions feed core.Generate / core.Enrich unchanged.
func ScreenWith(c *circuit.Circuit, fs []faults.Fault, cond ConditionFunc) (kept []FaultConditions, eliminated int) {
	im := NewImplier(c)
	for i := range fs {
		var ok []Cube
		for _, alt := range cond(c, &fs[i]) {
			if im.ImplyConsistent(&alt) {
				ok = append(ok, alt)
			}
		}
		if len(ok) == 0 {
			eliminated++
			continue
		}
		kept = append(kept, FaultConditions{Fault: fs[i], Alts: ok})
	}
	return kept, eliminated
}
