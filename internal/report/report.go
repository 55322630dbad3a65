// Package report summarizes test generation results the way a test
// engineer reads them: coverage bucketed by path length (the paper's
// quality axis), coverage per observation point, and test set
// statistics.
package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// LengthBucket aggregates detection for one path length.
type LengthBucket struct {
	Length   int
	Total    int
	Detected int
}

// POBucket aggregates detection per primary-output end line.
type POBucket struct {
	Line     int
	Name     string
	Total    int
	Detected int
}

// TestStats describes a test set.
type TestStats struct {
	Tests int
	// Transitions is the mean number of primary inputs changing
	// between the two patterns.
	Transitions float64
	// DetectedPerTest is the mean number of first-detections credited
	// per test (faults / tests over the detected population).
	DetectedPerTest float64
}

// Report is the full summary.
type Report struct {
	Faults    int
	Detected  int
	ByLength  []LengthBucket // longest first
	ByPO      []POBucket     // circuit PO order
	TestStats TestStats
}

// Build fault simulates the test set over the fault list and assembles
// the report.
func Build(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) (*Report, error) {
	first, err := bitsim.Run(c, tests, fcs)
	if err != nil {
		return nil, err
	}
	r := &Report{Faults: len(fcs)}

	byLen := map[int]*LengthBucket{}
	byPO := map[int]*POBucket{}
	for _, po := range c.POs {
		byPO[po] = &POBucket{Line: po, Name: c.Lines[po].Name}
	}
	for i := range fcs {
		f := &fcs[i].Fault
		lb := byLen[f.Length]
		if lb == nil {
			lb = &LengthBucket{Length: f.Length}
			byLen[f.Length] = lb
		}
		lb.Total++
		pb := byPO[f.Sink()]
		if pb == nil {
			pb = &POBucket{Line: f.Sink(), Name: c.Lines[f.Sink()].Name}
			byPO[f.Sink()] = pb
		}
		pb.Total++
		if first[i] >= 0 {
			r.Detected++
			lb.Detected++
			pb.Detected++
		}
	}
	for _, lb := range byLen {
		r.ByLength = append(r.ByLength, *lb)
	}
	sort.Slice(r.ByLength, func(i, j int) bool { return r.ByLength[i].Length > r.ByLength[j].Length })
	for _, po := range c.POs {
		r.ByPO = append(r.ByPO, *byPO[po])
	}

	r.TestStats.Tests = len(tests)
	if len(tests) > 0 {
		tr := 0
		for _, tp := range tests {
			for i := range tp.P1 {
				if tp.P1[i] != tval.X && tp.P3[i] != tval.X && tp.P1[i] != tp.P3[i] {
					tr++
				}
			}
		}
		r.TestStats.Transitions = float64(tr) / float64(len(tests))
		r.TestStats.DetectedPerTest = float64(r.Detected) / float64(len(tests))
	}
	return r, nil
}

// Render prints the report.
func (r *Report) Render(w io.Writer) {
	pct := func(d, t int) float64 {
		if t == 0 {
			return 0
		}
		return 100 * float64(d) / float64(t)
	}
	fmt.Fprintf(w, "coverage: %d/%d faults (%.1f%%) with %d tests (%.1f detections/test, %.1f input transitions/test)\n",
		r.Detected, r.Faults, pct(r.Detected, r.Faults),
		r.TestStats.Tests, r.TestStats.DetectedPerTest, r.TestStats.Transitions)
	fmt.Fprintf(w, "\nby path length:\n%8s %8s %9s %7s\n", "length", "faults", "detected", "%")
	for _, b := range r.ByLength {
		fmt.Fprintf(w, "%8d %8d %9d %6.1f%%\n", b.Length, b.Total, b.Detected, pct(b.Detected, b.Total))
	}
	fmt.Fprintf(w, "\nby observation point:\n%-16s %8s %9s %7s\n", "output", "faults", "detected", "%")
	for _, b := range r.ByPO {
		if b.Total == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %8d %9d %6.1f%%\n", b.Name, b.Total, b.Detected, pct(b.Detected, b.Total))
	}
}
