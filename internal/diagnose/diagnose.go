// Package diagnose locates path delay faults from tester observations:
// given which tests of a set passed and failed (and optionally which
// outputs failed), it ranks candidate faults by cause-effect
// consistency with the robust detection model.
//
// The prediction for candidate fault f is: every test that robustly
// detects f fails, every other test's behaviour is unconstrained in
// general — but under the single-fault assumption with robust tests, a
// test that does not sensitize any path through f's lines should pass.
// The score rewards explained failures and penalizes contradicted
// predictions; candidates explaining the full syndrome rank first.
//
// This closes the loop the paper motivates: if only the longest paths
// are tested, a next-to-longest-path defect produces a syndrome no P0
// fault explains — the enriched test set both catches it and localizes
// it.
package diagnose

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/robust"
)

// Observation is the tester response to one test.
type Observation struct {
	// Failed reports whether any output mismatched.
	Failed bool
	// FailingPOs optionally lists the PO-end line IDs that mismatched;
	// nil means "not recorded" (pass/fail only).
	FailingPOs []int
}

// Candidate is one ranked diagnosis.
type Candidate struct {
	// Fault indexes the fault list passed to Diagnose.
	Fault int
	// Explained counts observed failures predicted by the candidate,
	// Contradicted counts predictions the syndrome refutes (predicted
	// failures that passed), Unexplained counts observed failures the
	// candidate does not predict.
	Explained, Contradicted, Unexplained int
	// Score is Explained - Contradicted - Unexplained; candidates are
	// ranked by decreasing score.
	Score int
}

// Diagnose ranks every candidate fault against the syndrome. tests and
// obs must be parallel. Candidates that predict nothing (no test
// detects them) are omitted.
func Diagnose(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions, obs []Observation) []Candidate {
	if len(tests) != len(obs) {
		panic("diagnose: tests and observations must be parallel")
	}
	// Precompute the detection matrix column by column (per test).
	detects := make([][]bool, len(tests))
	for ti := range tests {
		sim := tests[ti].Simulate(c)
		detects[ti] = make([]bool, len(fcs))
		for fi := range fcs {
			detects[ti][fi] = fcs[fi].DetectedBy(sim)
		}
	}
	observedFailures := 0
	for ti := range obs {
		if obs[ti].Failed {
			observedFailures++
		}
	}

	var out []Candidate
	for fi := range fcs {
		cand := Candidate{Fault: fi}
		predicts := 0
		for ti := range tests {
			if !detects[ti][fi] {
				continue
			}
			predicts++
			if obs[ti].Failed {
				if poConsistent(c, &fcs[fi], obs[ti].FailingPOs) {
					cand.Explained++
				} else {
					cand.Contradicted++
				}
			} else {
				cand.Contradicted++
			}
		}
		if predicts == 0 {
			continue
		}
		cand.Unexplained = observedFailures - cand.Explained
		cand.Score = cand.Explained - cand.Contradicted - cand.Unexplained
		out = append(out, cand)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Fault < out[j].Fault
	})
	return out
}

// poConsistent checks that the fault's observable output is among the
// failing POs (when PO data was recorded). A robustly detected path
// delay fault fails exactly at the path's terminus.
func poConsistent(c *circuit.Circuit, fc *robust.FaultConditions, failingPOs []int) bool {
	if failingPOs == nil {
		return true
	}
	sink := fc.Fault.Sink()
	for _, po := range failingPOs {
		if po == sink {
			return true
		}
	}
	return false
}

// PerfectScore reports whether the top candidate explains every
// observed failure with no contradictions.
func PerfectScore(cands []Candidate, obs []Observation) bool {
	if len(cands) == 0 {
		return false
	}
	top := cands[0]
	failures := 0
	for _, o := range obs {
		if o.Failed {
			failures++
		}
	}
	return top.Contradicted == 0 && top.Unexplained == 0 && top.Explained == failures
}
