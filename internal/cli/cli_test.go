package cli

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/pathenum"
	"repro/internal/perfreg"
	"repro/internal/robust"
	"repro/internal/testio"
)

// run invokes a CLI function capturing stdout and stderr.
func run(t *testing.T, f func([]string, *bytes.Buffer, *bytes.Buffer) error, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := f(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestPathProfileCLI(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-profile", "s27", "-np", "0", "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "N_p(L_i)", "faults enumerated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPathProfileCLIErrors(t *testing.T) {
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}); err == nil {
		t.Error("missing circuit selection must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-profile", "ghost"); err == nil {
		t.Error("unknown profile must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-profile", "s27", "-bench", "x.bench"); err == nil {
		t.Error("both -profile and -bench must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-nosuchflag"); err == nil {
		t.Error("unknown flag must fail")
	}
}

func TestSynthGenCLI(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return SynthGen(a, o, e)
	}, "-profile", "b09")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "INPUT(") || !strings.Contains(out, "OUTPUT(") {
		t.Error("synthgen output is not a .bench netlist")
	}
	// And it must reparse.
	if _, err := bench.ParseCombinationalString("x", out); err != nil {
		t.Errorf("emitted netlist does not parse: %v", err)
	}
}

func TestSynthGenCLIList(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return SynthGen(a, o, e)
	}, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s641", "b09", "s9234r"} {
		if !strings.Contains(out, name) {
			t.Errorf("profile list missing %s", name)
		}
	}
}

func TestSynthGenCLISequential(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return SynthGen(a, o, e)
	}, "-profile", "b09", "-ffs", "6")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DFF(") {
		t.Error("sequential output has no flip-flops")
	}
	if _, err := bench.ParseCombinationalString("x", out); err != nil {
		t.Errorf("sequential netlist does not parse: %v", err)
	}
}

func TestSynthGenCLIUnknownProfile(t *testing.T) {
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return SynthGen(a, o, e)
	}, "-profile", "ghost"); err == nil {
		t.Error("unknown profile must fail")
	}
}

func TestPDFATPGAndPDFSimCLIPipeline(t *testing.T) {
	dir := t.TempDir()
	testsFile := filepath.Join(dir, "tests.txt")
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10", "-enrich", "-tests", testsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"circuit s27", "partition", "enrichment:", "wrote"} {
		if !strings.Contains(out, want) {
			t.Errorf("pdfatpg output missing %q:\n%s", want, out)
		}
	}
	got, err := os.ReadFile(testsFile)
	if err != nil {
		t.Fatal("tests file not written")
	}
	// The file is the procedure's tests as testio.WriteTests renders
	// them, byte for byte.
	d, err := experiments.Prepare("s27", experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Heuristic: core.ValueBased, Seed: 1})
	var want bytes.Buffer
	if err := testio.WriteTests(&want, er.Tests); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("tests file differs from testio.WriteTests of the job's tests:\n%s\nvs\n%s", got, want.Bytes())
	}

	simOut, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFSim(a, o, e)
	}, "-profile", "s27", "-np", "0", "-tests", testsFile, "-v")
	if err != nil {
		t.Fatal(err)
	}
	if summary := fmt.Sprintf(", %d detected (", er.DetectedCount); !strings.Contains(simOut, summary) {
		t.Errorf("pdfsim output missing %q, the enrichment's P0 ∪ P1 detection:\n%s", summary, simOut)
	}
}

func TestPDFATPGHeuristics(t *testing.T) {
	for _, h := range []string{"uncomp", "arbit", "length", "values"} {
		out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
			return PDFATPG(a, o, e)
		}, "-profile", "s27", "-np", "0", "-np0", "10", "-heuristic", h)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if !strings.Contains(out, "basic ("+h+")") {
			t.Errorf("%s: wrong banner:\n%s", h, out)
		}
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-heuristic", "bogus"); err == nil {
		t.Error("bogus heuristic must fail")
	}
}

func TestPDFATPGBnBAndTDF(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10", "-bnb")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "basic (values)") {
		t.Errorf("bnb run banner wrong:\n%s", out)
	}
	out, _, err = run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-tdf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "transition faults") {
		t.Errorf("tdf run banner wrong:\n%s", out)
	}
}

func TestCritPathCLI(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return CritPath(a, o, e)
	}, "-profile", "s27", "-np", "0", "-top", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "length") || !strings.Contains(out, "G17") {
		t.Errorf("critpath output unexpected:\n%s", out)
	}
	if strings.Count(out, "\n") < 5 {
		t.Error("too few lines")
	}
}

func TestWaveformCLI(t *testing.T) {
	out, errOut, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Waveform(a, o, e)
	}, "-profile", "s27", "-test", "0010010 -> 1010010",
		"-inject", "G1,G12,G12->G13,G13", "-extra", "7", "-distribute")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$enddefinitions $end") {
		t.Errorf("waveform did not emit VCD:\n%s", out)
	}
	if !strings.Contains(errOut, `msg="injected extra delay"`) || !strings.Contains(errOut, "extra=7") {
		t.Errorf("injection record missing:\n%s", errOut)
	}
	// Errors.
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Waveform(a, o, e)
	}, "-profile", "s27"); err == nil {
		t.Error("missing -test must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Waveform(a, o, e)
	}, "-profile", "s27", "-test", "0010010 -> 1010010", "-inject", "G1,G9"); err == nil {
		t.Error("disconnected injection path must fail")
	}
}

func TestTablesCLISingleTables(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("table 1 output wrong:\n%s", out)
	}
	out, _, err = run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "2", "-circuits", "s27", "-np", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "s27") {
		t.Errorf("table 2 output wrong:\n%s", out)
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "9"); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestTablesCLIGenerationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, errOut, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "6", "-circuits", "s27", "-np", "0", "-np0", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 6") || !strings.Contains(out, "s27") {
		t.Errorf("table 6 output wrong:\n%s", out)
	}
	if !strings.Contains(errOut, `msg="preparing circuit"`) || !strings.Contains(errOut, "circuit=s27") {
		t.Errorf("progress output missing:\n%s", errOut)
	}
	// Unknown circuits are skipped with a message, not fatal.
	out, errOut, err = run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "4", "-circuits", "s27,ghost", "-np", "0", "-np0", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, `msg="skipping circuit"`) || !strings.Contains(errOut, "circuit=ghost") {
		t.Errorf("skip message missing:\n%s", errOut)
	}
	if !strings.Contains(out, "Table 4") {
		t.Errorf("table 4 output wrong:\n%s", out)
	}
}

func TestPDFSimCLIWithFaultList(t *testing.T) {
	dir := t.TempDir()
	// Write a fault list and a test file by hand.
	faultsFile := filepath.Join(dir, "faults.txt")
	if err := os.WriteFile(faultsFile, []byte("STR G1,G12,G12->G13,G13\nSTF G2,G13\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	testsFile := filepath.Join(dir, "tests.txt")
	if err := os.WriteFile(testsFile, []byte("0000000 -> 0100000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFSim(a, o, e)
	}, "-profile", "s27", "-tests", testsFile, "-faults", faultsFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 target faults") {
		t.Errorf("fault list not honored:\n%s", out)
	}
	// Missing -tests.
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFSim(a, o, e)
	}, "-profile", "s27"); err == nil {
		t.Error("missing -tests must fail")
	}
}

// Tests with x inputs simulate like fully specified ones: every
// per-fault line of pdfsim -v matches the scalar reference simulator.
func TestPDFSimPartialTests(t *testing.T) {
	c := bench.S27()
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		for k := 0; k < 2*len(c.PIs); k++ {
			if k == len(c.PIs) {
				sb.WriteString(" -> ")
			}
			sb.WriteByte("01x1"[r.Intn(4)])
		}
		sb.WriteByte('\n')
	}
	testsFile := filepath.Join(t.TempDir(), "tests.txt")
	if err := os.WriteFile(testsFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFSim(a, o, e)
	}, "-profile", "s27", "-np", "0", "-tests", testsFile, "-v")
	if err != nil {
		t.Fatal(err)
	}

	tests, err := testio.ReadTests(strings.NewReader(sb.String()), len(c.PIs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	lines := strings.Split(out, "\n")
	if len(lines) < len(kept) {
		t.Fatalf("%d output lines for %d faults:\n%s", len(lines), len(kept), out)
	}
	detected := 0
	for i, d := range faultsim.Run(c, tests, kept) {
		status := "UNDETECTED"
		if d >= 0 {
			status = fmt.Sprintf("detected by t%d", d)
			detected++
		}
		if want := fmt.Sprintf("%-60s %s", kept[i].Fault.Format(c), status); lines[i] != want {
			t.Errorf("fault %d:\n got %q\nwant %q", i, lines[i], want)
		}
	}
	if detected == 0 {
		t.Error("no fault detected; comparison vacuous")
	}
}

func TestTablesCLICSVFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "6", "-circuits", "s27", "-np", "0", "-np0", "10", "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "circuit,i0,p0_total") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "s27,") {
		t.Errorf("CSV row missing:\n%s", out)
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-format", "yaml"); err == nil {
		t.Error("unknown format must fail")
	}
}

func TestPDFDiagCLI(t *testing.T) {
	dir := t.TempDir()
	testsFile := filepath.Join(dir, "tests.txt")
	_, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10", "-enrich", "-tests", testsFile)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(testsFile)
	if err != nil {
		t.Fatal(err)
	}
	nTests := strings.Count(string(data), "->")
	// Syndrome: first test fails (pass/fail only), rest pass.
	var sb strings.Builder
	sb.WriteString("FAIL\n")
	for i := 1; i < nTests; i++ {
		sb.WriteString("PASS\n")
	}
	synFile := filepath.Join(dir, "syn.txt")
	if err := os.WriteFile(synFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFDiag(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10",
		"-tests", testsFile, "-syndrome", synFile, "-top", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "score") || !strings.Contains(out, "STR") && !strings.Contains(out, "STF") {
		t.Errorf("diagnosis output unexpected:\n%s", out)
	}
	// Mismatched syndrome length.
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if nTests > 1 {
		if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
			return PDFDiag(a, o, e)
		}, "-profile", "s27", "-np", "0", "-tests", testsFile, "-syndrome", bad); err == nil {
			t.Error("length mismatch must fail")
		}
	}
}

func TestVerilogFlagAndC17Profile(t *testing.T) {
	dir := t.TempDir()
	vf := filepath.Join(dir, "c17.v")
	src := `module c17 (N1,N2,N3,N6,N7,N22,N23);
input N1,N2,N3,N6,N7;
output N22,N23;
nand NAND2_1 (N10, N1, N3);
nand NAND2_2 (N11, N3, N6);
nand NAND2_3 (N16, N2, N11);
nand NAND2_4 (N19, N11, N7);
nand NAND2_5 (N22, N10, N16);
nand NAND2_6 (N23, N16, N19);
endmodule
`
	if err := os.WriteFile(vf, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return CritPath(a, o, e)
	}, "-verilog", vf, "-np", "0", "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "N22") && !strings.Contains(out, "N23") {
		t.Errorf("verilog-loaded circuit output unexpected:\n%s", out)
	}
	// Embedded c17 by profile name.
	out, _, err = run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-profile", "c17", "-np", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "c17") {
		t.Errorf("c17 profile output unexpected:\n%s", out)
	}
	// Conflicting selectors.
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-profile", "s27", "-verilog", vf); err == nil {
		t.Error("conflicting circuit selectors must fail")
	}
}

func TestPDFATPGReportFlag(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10", "-enrich", "-report")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"by path length:", "by observation point:", "coverage:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
}

func TestPDFATPGCollapseFlag(t *testing.T) {
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10", "-enrich", "-collapse")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "collapsed P0:") {
		t.Errorf("collapse banner missing:\n%s", out)
	}
}

func TestTablesCLIRemainingTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tbl := range []string{"3", "5", "7"} {
		out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
			return Tables(a, o, e)
		}, "-table", tbl, "-circuits", "s27", "-np", "0", "-np0", "10")
		if err != nil {
			t.Fatalf("table %s: %v", tbl, err)
		}
		if !strings.Contains(out, "Table "+tbl) {
			t.Errorf("table %s banner missing:\n%s", tbl, out)
		}
	}
	// The full "all" path over a single tiny circuit.
	out, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "all", "-circuits", "s27", "-np", "0", "-np0", "10")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Table 3", "Table 6", "Table 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-tables output missing %q", want)
		}
	}
}

// The "all" rendering runs every table over -circuits, skipping a
// circuit that fails to prepare with a warning instead of aborting.
func TestTablesCLIAllSkipsMissingCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, errOut, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Tables(a, o, e)
	}, "-table", "all", "-circuits", "b09,definitely-missing", "-np", "300", "-np0", "60")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if !strings.Contains(out, fmt.Sprintf("Table %d", i)) {
			t.Errorf("all-tables output missing Table %d", i)
		}
	}
	if !strings.Contains(out, "b09") {
		t.Errorf("all-tables output has no b09 rows:\n%s", out)
	}
	if strings.Contains(out, "definitely-missing") {
		t.Errorf("missing circuit rendered as a row:\n%s", out)
	}
	if !strings.Contains(errOut, `msg="skipping circuit"`) || !strings.Contains(errOut, "circuit=definitely-missing") {
		t.Errorf("skip warning missing:\n%s", errOut)
	}
}

func TestWaveformCLIToFile(t *testing.T) {
	dir := t.TempDir()
	vcd := filepath.Join(dir, "out.vcd")
	_, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Waveform(a, o, e)
	}, "-profile", "s27", "-test", "0010010 -> 1010010", "-o", vcd)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions $end") {
		t.Error("VCD file content wrong")
	}
	// Unknown line in injection spec.
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Waveform(a, o, e)
	}, "-profile", "s27", "-test", "0010010 -> 1010010", "-inject", "ghost"); err == nil {
		t.Error("unknown injection line must fail")
	}
	// Malformed test string.
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return Waveform(a, o, e)
	}, "-profile", "s27", "-test", "001 -> 101"); err == nil {
		t.Error("short test pattern must fail")
	}
}

func TestCLIFileErrors(t *testing.T) {
	// Nonexistent files must surface as errors, not panics.
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFSim(a, o, e)
	}, "-profile", "s27", "-tests", "/nonexistent/file"); err == nil {
		t.Error("missing tests file must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFDiag(a, o, e)
	}, "-profile", "s27", "-tests", "/nonexistent/file", "-syndrome", "/also/missing"); err == nil {
		t.Error("missing diag inputs must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PathProfile(a, o, e)
	}, "-bench", "/nonexistent.bench"); err == nil {
		t.Error("missing bench file must fail")
	}
}

// pdfbench end to end: write a snapshot, pass against itself, fail
// against a doctored baseline claiming better numbers.
func TestPDFBenchWriteAndCheck(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_base.json")

	stdout, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFBench(a, o, e)
	}, "-reps", "1", "-q", "-out", base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "wrote "+base) {
		t.Fatalf("no write banner:\n%s", stdout)
	}
	snap, err := perfreg.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != perfreg.SchemaVersion || len(snap.Cases) == 0 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	for _, c := range snap.Cases {
		if c.WallSecondsMin <= 0 || len(c.StageSeconds) == 0 || c.Tests == 0 {
			t.Fatalf("case %s not measured: %+v", c.Name, c)
		}
	}

	// The same machine re-running the same suite must pass its own
	// baseline (anything else means the gates are too tight to use).
	stdout, _, err = run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFBench(a, o, e)
	}, "-reps", "1", "-q", "-baseline", base)
	if err != nil {
		t.Fatalf("self-baseline failed: %v\n%s", err, stdout)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Fatalf("no clean-pass banner:\n%s", stdout)
	}

	// Doctored baseline: it claims fewer tests, more coverage and much
	// faster runs than reality — every gate must trip.
	for i := range snap.Cases {
		snap.Cases[i].WallSecondsMin /= 1000
		snap.Cases[i].Tests--
		snap.Cases[i].P0Detected++
	}
	doctored := filepath.Join(dir, "BENCH_doctored.json")
	if err := snap.WriteFile(doctored); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFBench(a, o, e)
	}, "-reps", "1", "-q", "-baseline", doctored)
	if err == nil {
		t.Fatal("doctored baseline must fail the check")
	}
	for _, want := range []string{"REGRESSION", "wall_seconds_min", "tests", "p0_detected"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("regression report missing %q:\n%s", want, stderr)
		}
	}
}

func TestPDFBenchList(t *testing.T) {
	stdout, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFBench(a, o, e)
	}, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"c17-generate", "s641-enrich", "s1196-enrich-bnb"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("suite listing missing %q:\n%s", want, stdout)
		}
	}
}
