package cli

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/tdf"
	"repro/internal/testio"
)

// PDFATPG implements cmd/pdfatpg: the full test generation flow on one
// circuit, executed as an engine job.
func PDFATPG(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("pdfatpg", stderr)
	load := circuitFlags(fs)
	var (
		np        = fs.Int("np", 2000, "N_P: fault budget for path enumeration")
		np0       = fs.Int("np0", 300, "N_P0: minimum size of the first target set")
		heuristic = fs.String("heuristic", "values", "compaction heuristic for basic generation: uncomp, arbit, length, values (enrichment always uses values)")
		enrich    = fs.Bool("enrich", false, "run the test enrichment procedure (P0 and P1)")
		useBnB    = fs.Bool("bnb", false, "use the branch-and-bound justification backend")
		tdfMode   = fs.Bool("tdf", false, "generate transition fault tests instead (extension)")
		seed      = fs.Int64("seed", 1, "randomization seed")
		testsOut  = fs.String("tests", "", "write the generated two-pattern tests to this file")
		rep       = fs.Bool("report", false, "print a coverage report (by path length and observation point)")
		collapse  = fs.Bool("collapse", false, "collapse subsumed faults before targeting (coverage still measured on the full set)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := parseHeuristic(*heuristic); err != nil {
		return err
	}
	c, err := load()
	if err != nil {
		return err
	}
	st := c.Stats()
	fmt.Fprintf(stdout, "circuit %s: %d inputs, %d outputs, %d gates, %d lines, depth %d\n",
		c.Name, st.PIs, st.POs, st.Gates, st.Lines, st.Depth)

	if *tdfMode {
		tfs := tdf.AllFaults(c)
		res := tdf.Generate(c, tfs, tdf.Config{Seed: *seed})
		fmt.Fprintf(stdout, "transition faults: %d targets, %d surrogate path delay faults\n",
			len(tfs), res.Surrogates)
		fmt.Fprintf(stdout, "tdf: %d tests, detected %d/%d (%.1f%%)\n",
			len(res.Tests), res.DetectedCount, len(tfs),
			100*float64(res.DetectedCount)/float64(len(tfs)))
		return writeTestsFile(stdout, *testsOut, res.Tests)
	}

	spec := engine.Spec{
		Kind:      engine.KindGenerate,
		Circ:      c,
		NP:        *np,
		NP0:       *np0,
		Seed:      *seed,
		Heuristic: *heuristic,
		UseBnB:    *useBnB,
		Collapse:  *collapse,
	}
	if *enrich {
		spec.Kind = engine.KindEnrich
		// -heuristic applies to basic generation only; enrichment always
		// runs the paper's value-based ordering, matching the pre-engine
		// CLI (which never passed the flag into core.Enrich).
		spec.Heuristic = core.ValueBased.String()
	}
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 4})
	defer eng.Close()
	v, err := eng.RunJob(context.Background(), spec)
	if err != nil {
		return err
	}
	if v.Status != engine.StatusDone {
		return fmt.Errorf("job %s: %s", v.Status, v.Error)
	}
	r := v.Result

	fmt.Fprintf(stdout, "enumerated %d faults (budget %d), eliminated %d undetectable\n",
		r.Enumerated, *np, r.Eliminated)
	fmt.Fprintf(stdout, "partition: i0=%d, |P0|=%d, |P1|=%d\n", r.I0, r.P0Size, r.P1Size)
	if r.P0Targets != r.P0Size {
		fmt.Fprintf(stdout, "collapsed P0: %d -> %d targets (%d subsumed)\n",
			r.P0Size, r.P0Targets, r.P0Size-r.P0Targets)
	}
	if r.P1Targets != r.P1Size {
		fmt.Fprintf(stdout, "collapsed P1: %d -> %d targets (%d subsumed)\n",
			r.P1Size, r.P1Targets, r.P1Size-r.P1Targets)
	}

	elapsed := v.RunMS / 1000
	if *enrich {
		fmt.Fprintf(stdout, "enrichment: %d tests, P0 detected %d/%d, P0∪P1 detected %d/%d (%.1fs)\n",
			r.TestCount, r.P0Detected, r.P0Targets,
			r.AllDetected, r.AllTotal, elapsed)
	} else {
		fmt.Fprintf(stdout, "basic (%s): %d tests, P0 detected %d/%d, aborts %d (%.1fs)\n",
			*heuristic, r.TestCount, r.P0Detected, r.P0Targets, r.PrimaryAborts, elapsed)
		fmt.Fprintf(stdout, "P0∪P1 accidental detection: %d/%d\n", r.AllDetected, r.AllTotal)
	}
	if *rep {
		// The report needs the fault set itself; re-prepare (cheap and
		// deterministic — same params as the engine's prepare stage).
		d, err := experiments.PrepareCircuit(c, experiments.Params{NP: *np, NP0: *np0, Seed: *seed})
		if err != nil {
			return err
		}
		tests, _, err := testio.ParseTests(r.Tests, len(c.PIs))
		if err != nil {
			return err
		}
		rp, err := report.Build(c, tests, d.All())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		rp.Render(stdout)
	}
	return writeTestsFile(stdout, *testsOut, r.Tests)
}

func writeTestsFile[T circuit.TwoPattern | string](stdout io.Writer, path string, tests []T) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := testio.WriteTests(f, tests); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d tests to %s\n", len(tests), path)
	return nil
}

func parseHeuristic(s string) (core.Heuristic, error) {
	return core.ParseHeuristic(s)
}
