// Package timenowfix is the pdflint fixture for the timenow analyzer:
// wall-clock reads in deterministic packages need a
// //lint:ignore timenow directive saying why they are observational only.
package timenowfix

import "time"

// Result mimics a generation result with a telemetry field.
type Result struct {
	Tests   []int
	Elapsed time.Duration
}

// Bad lets the wall clock leak into the result payload.
func Bad() *Result {
	res := &Result{}
	if time.Now().UnixNano()%2 == 0 { // want `time.Now in deterministic package`
		res.Tests = append(res.Tests, 1)
	}
	return res
}

// BadSince measures without an annotation.
func BadSince(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since in deterministic package`
}

// Good annotates the observational read.
func Good() *Result {
	start := time.Now() //lint:ignore timenow feeds Elapsed only
	res := &Result{Tests: []int{1}}
	//lint:ignore timenow wall-clock report, not part of the digest
	res.Elapsed = time.Since(start)
	return res
}
