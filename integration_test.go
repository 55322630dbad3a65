package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/testio"
	"repro/internal/timingsim"
)

// TestFullPipelineFromBenchFile drives the complete flow the way a
// downstream user would: a .bench netlist on disk in, a validated test
// set out.
func TestFullPipelineFromBenchFile(t *testing.T) {
	dir := t.TempDir()

	// 1. Write a netlist to disk (the embedded s27 plus a synthetic
	// circuit emitted through the writer).
	s27Path := filepath.Join(dir, "s27.bench")
	if err := os.WriteFile(s27Path, []byte(bench.S27Source), 0o644); err != nil {
		t.Fatal(err)
	}
	synthPath := filepath.Join(dir, "synth.bench")
	sc := synth.MustGenerate(synth.Profile{
		Name: "pipeline", Seed: 99, PIs: 12, Gates: 60, Levels: 8, MaxFanin: 3, InvFrac: 0.15,
	})
	sf, err := os.Create(synthPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(sf, sc); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	for _, file := range []string{s27Path, synthPath} {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			// 2. Parse and extract combinational logic.
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			c, err := bench.ParseCombinational(file, f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}

			// 3. Enumerate, screen, partition.
			d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 500, NP0: 40, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(d.P0) == 0 {
				t.Skip("no detectable faults")
			}

			// 4. Generate the enriched test set.
			er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
			if len(er.Tests) == 0 {
				t.Fatal("no tests generated")
			}

			// 5. Round-trip the test set and the fault list through
			// their file formats.
			testsFile := filepath.Join(dir, filepath.Base(file)+".tests")
			tf, err := os.Create(testsFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := testio.WriteTests(tf, er.Tests); err != nil {
				t.Fatal(err)
			}
			tf.Close()
			tf2, err := os.Open(testsFile)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := testio.ReadTests(tf2, len(c.PIs))
			tf2.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != len(er.Tests) {
				t.Fatalf("test set round trip lost tests: %d vs %d", len(loaded), len(er.Tests))
			}

			// 6. Fault simulate the loaded tests with both simulators;
			// coverage must match the generation run's claim.
			all := d.All()
			scalar := faultsim.Count(c, loaded, all)
			parallel, err := bitsim.Count(c, loaded, all)
			if err != nil {
				t.Fatal(err)
			}
			if scalar != parallel {
				t.Fatalf("simulators disagree: %d vs %d", scalar, parallel)
			}
			if want := er.DetectedP0Count + er.DetectedP1Count; scalar != want {
				t.Fatalf("reloaded tests detect %d, generation claimed %d", scalar, want)
			}

			// 7. Validate one detection in the timing domain.
			var validated bool
			for i := range d.P0 {
				if !er.DetectedP0[i] {
					continue
				}
				j := justify.New(c, justify.Config{Seed: 5})
				test, ok := j.Justify(&d.P0[i].Alts[0])
				if !ok {
					continue
				}
				delays := timingsim.UniformDelays(c, 3)
				ff, err := timingsim.Simulate(c, delays, test)
				if err != nil {
					t.Fatal(err)
				}
				period := ff.SettleTime()
				faulty, err := timingsim.Simulate(c,
					delays.WithExtraOnPath(d.P0[i].Fault.Path, period+1), test)
				if err != nil {
					t.Fatal(err)
				}
				if !timingsim.Detected(faulty, d.P0[i].Fault.Path, period, ff) {
					t.Fatalf("timing validation failed for %s", d.P0[i].Fault.Format(c))
				}
				validated = true
				break
			}
			if !validated {
				t.Error("no fault timing-validated")
			}
		})
	}
}

// TestToolFormatsInterop checks that the fault list written from one
// enumeration is accepted and produces identical screening results.
func TestToolFormatsInterop(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := testio.WriteFaults(&sb, c, res.Faults); err != nil {
		t.Fatal(err)
	}
	loaded, err := testio.ReadFaults(strings.NewReader(sb.String()), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	k1, e1 := robust.Screen(c, res.Faults)
	k2, e2 := robust.Screen(c, loaded)
	if len(k1) != len(k2) || e1 != e2 {
		t.Fatalf("screening diverges after round trip: %d/%d vs %d/%d",
			len(k1), e1, len(k2), e2)
	}
}

// TestSuiteSmoke runs each table's procedure (Prepare, BasicTable,
// EnrichTable) at tiny budgets on b09. The tables command's full
// rendering is covered in internal/cli.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := experiments.Params{NP: 300, NP0: 60, Seed: 1}
	d1, err := experiments.Prepare("b09", p)
	if err != nil {
		t.Fatal(err)
	}
	row, err := experiments.BasicTable(d1, p)
	if err != nil {
		t.Fatal(err)
	}
	if row.P0Faults == 0 || row.Tests[3] == 0 {
		t.Fatalf("degenerate basic row: %+v", row)
	}
	er := experiments.EnrichTable(d1, p)
	if er.Tests == 0 || er.P0Detected == 0 {
		t.Fatalf("degenerate enrich row: %+v", er)
	}
	// Partition helpers stay consistent on the same data.
	raw := make([]faults.Fault, 0, len(d1.P0)+len(d1.P1))
	for _, fc := range d1.All() {
		raw = append(raw, fc.Fault)
	}
	p0, p1, _ := faults.Partition(raw, p.NP0)
	if len(p0) != len(d1.P0) || len(p1) != len(d1.P1) {
		t.Fatalf("partition mismatch: %d/%d vs %d/%d",
			len(p0), len(p1), len(d1.P0), len(d1.P1))
	}
}
