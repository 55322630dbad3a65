package cli

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bitsim"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/testio"
)

// PDFSim implements cmd/pdfsim: fault simulate a test set file.
func PDFSim(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("pdfsim", stderr)
	load := circuitFlags(fs)
	var (
		testsFile  = fs.String("tests", "", "two-pattern test set file (required)")
		faultsFile = fs.String("faults", "", "fault list file (default: enumerate)")
		np         = fs.Int("np", 2000, "N_P fault budget when enumerating")
		verbose    = fs.Bool("v", false, "print per-fault detection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := load()
	if err != nil {
		return err
	}
	if *testsFile == "" {
		return fmt.Errorf("-tests is required")
	}
	tf, err := os.Open(*testsFile)
	if err != nil {
		return err
	}
	defer tf.Close()
	tests, err := testio.ReadTests(tf, len(c.PIs))
	if err != nil {
		return err
	}

	var fls []faults.Fault
	if *faultsFile != "" {
		ff, err := os.Open(*faultsFile)
		if err != nil {
			return err
		}
		defer ff.Close()
		fls, err = testio.ReadFaults(ff, c, nil)
		if err != nil {
			return err
		}
	} else {
		res, err := pathenum.Enumerate(c, pathenum.Config{
			MaxFaults: *np, Mode: pathenum.DistancePruned,
		})
		if err != nil {
			return err
		}
		fls = res.Faults
	}
	kept, eliminated := robust.Screen(c, fls)
	first, err := bitsim.Run(c, tests, kept)
	if err != nil {
		return err
	}
	detected := bitsim.Detected(first)
	if *verbose {
		for i, d := range first {
			status := "UNDETECTED"
			if d >= 0 {
				status = fmt.Sprintf("detected by t%d", d)
			}
			fmt.Fprintf(stdout, "%-60s %s\n", kept[i].Fault.Format(c), status)
		}
	}
	denom := len(kept)
	if denom == 0 {
		denom = 1
	}
	fmt.Fprintf(stdout, "%s: %d tests, %d target faults (%d undetectable eliminated), %d detected (%.1f%%)\n",
		c.Name, len(tests), len(kept), eliminated, detected,
		100*float64(detected)/float64(denom))
	return nil
}
