package experiments

import (
	"fmt"
	"io"

	"repro/internal/faults"
)

// RenderTable1 prints the Table 1 summary.
func RenderTable1(w io.Writer, r *Table1Result) {
	fmt.Fprintln(w, "Table 1: budgeted moderate enumeration of s27 (N_P = 20 paths)")
	fmt.Fprintf(w, "  final paths: %d, lengths %d..%d, complete paths evicted: %d, budget hits: %d\n",
		r.FinalPaths, r.MinLen, r.MaxLen, r.EvictedComplete, r.BudgetHits)
	for _, p := range r.Paths {
		fmt.Fprintf(w, "  %s\n", p)
	}
}

// RenderTable2 prints the length profile in the paper's three columns.
func RenderTable2(w io.Writer, name string, prof []faults.LengthCount) {
	fmt.Fprintf(w, "Table 2: numbers of faults in %s\n", name)
	fmt.Fprintf(w, "%4s %6s %10s\n", "i", "L_i", "N_p(L_i)")
	for i, row := range prof {
		fmt.Fprintf(w, "%4d %6d %10d\n", i, row.L, row.Cumulative)
	}
}

// RenderTable3 prints P0 detection counts per heuristic.
func RenderTable3(w io.Writer, rows []*BasicRow) {
	fmt.Fprintln(w, "Table 3: basic test generation using P0 (detected faults)")
	fmt.Fprintf(w, "%-8s %4s %8s %8s %8s %8s %8s\n",
		"circuit", "i0", "P0 flts", "uncomp", "arbit", "length", "values")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %8d %8d %8d %8d %8d\n",
			r.Circuit, r.I0, r.P0Faults,
			r.Detected[0], r.Detected[1], r.Detected[2], r.Detected[3])
	}
}

// RenderTable4 prints test counts per heuristic.
func RenderTable4(w io.Writer, rows []*BasicRow) {
	fmt.Fprintln(w, "Table 4: basic test generation using P0 (numbers of tests)")
	fmt.Fprintf(w, "%-8s %4s %8s %8s %8s %8s\n",
		"circuit", "i0", "uncomp", "arbit", "length", "values")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %8d %8d %8d %8d\n",
			r.Circuit, r.I0,
			r.Tests[0], r.Tests[1], r.Tests[2], r.Tests[3])
	}
}

// RenderTable5 prints the accidental P0∪P1 detection of the basic test
// sets.
func RenderTable5(w io.Writer, rows []*BasicRow) {
	fmt.Fprintln(w, "Table 5: simulation of P0 ∪ P1 under the basic test sets")
	fmt.Fprintf(w, "%-8s %4s %10s %8s %8s %8s %8s\n",
		"circuit", "i0", "P0P1 flts", "uncomp", "arbit", "length", "values")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %10d %8d %8d %8d %8d\n",
			r.Circuit, r.I0, r.P0P1Faults,
			r.P0P1Detected[0], r.P0P1Detected[1], r.P0P1Detected[2], r.P0P1Detected[3])
	}
}

// RenderTable6 prints the enrichment results.
func RenderTable6(w io.Writer, rows []*EnrichRow) {
	fmt.Fprintln(w, "Table 6: results of test enrichment using P0 and P1")
	fmt.Fprintf(w, "%-8s %4s %9s %9s %10s %10s %7s\n",
		"circuit", "i0", "P0 total", "P0 det", "P0P1 tot", "P0P1 det", "tests")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %9d %9d %10d %10d %7d\n",
			r.Circuit, r.I0, r.P0Total, r.P0Detected,
			r.AllTotal, r.AllDetected, r.Tests)
	}
}

// RenderTable7 prints the run time ratios.
func RenderTable7(w io.Writer, rows []*EnrichRow) {
	fmt.Fprintln(w, "Table 7: run time ratios (enrichment / basic value-based)")
	fmt.Fprintf(w, "%-8s %4s %7s\n", "circuit", "i0", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %7.2f\n", r.Circuit, r.I0, r.Ratio)
	}
}
