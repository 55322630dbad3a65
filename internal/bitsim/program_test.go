package bitsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/tval"
)

// screened returns up to max screened faults of c.
func screened(t testing.TB, c *circuit.Circuit, max int) []robust.FaultConditions {
	t.Helper()
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: max, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	return kept
}

// checkProgram compares the compiled program of fcs against two
// independent oracles on tests: in every batch, each fault's program
// mask against the cube walk (Batch.Detects), then Program.Run's
// first-detect indices against the scalar simulator. It returns how
// many (batch, fault) masks were nonzero.
func checkProgram(t *testing.T, c *circuit.Circuit, fcs []robust.FaultConditions, tests []circuit.TwoPattern) int {
	t.Helper()
	prog := bitsim.Compile(c, fcs)
	nonzero := 0
	for base := 0; base < len(tests); base += bitsim.WordSize {
		b, err := bitsim.Simulate(c, tests[base:min(base+bitsim.WordSize, len(tests))])
		if err != nil {
			t.Fatal(err)
		}
		for i := range fcs {
			want := b.Detects(&fcs[i])
			if got := prog.Detects(b, i); got != want {
				t.Fatalf("%s batch at %d fault %s: program mask %x, Detects %x",
					c.Name, base, fcs[i].Fault.Format(c), got, want)
			}
			if want != 0 {
				nonzero++
			}
		}
	}
	got, err := prog.Run(context.Background(), tests)
	if err != nil {
		t.Fatalf("%s: Program.Run: %v", c.Name, err)
	}
	checkFirst(t, c, fcs, got, faultsim.Run(c, tests, fcs))
	return nonzero
}

// checkFirst compares Program.Run's first-detect indices against the
// scalar simulator's.
func checkFirst(t *testing.T, c *circuit.Circuit, fcs []robust.FaultConditions, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: Program.Run gives %d indices, faultsim.Run %d", c.Name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s fault %s: Program.Run first-detect %d, faultsim.Run %d",
				c.Name, fcs[i].Fault.Format(c), got[i], want[i])
		}
	}
}

// programTestSets are the test sets the program is checked on: 130
// tests mixing random and justified ones, so that detections are not
// vacuous and two batch boundaries are crossed, then an x-bearing
// copy, a single test and 65 tests.
func programTestSets(c *circuit.Circuit, fcs []robust.FaultConditions, r *rand.Rand) [][]circuit.TwoPattern {
	tests := randomTests(c, r, 130)
	j := justify.New(c, justify.Config{Seed: 13})
	for i, k := 0, 0; i < len(fcs) && k < 60; i++ {
		if tp, ok := j.Justify(&fcs[i].Alts[0]); ok {
			tests[2*k+1] = tp
			k++
		}
	}
	return [][]circuit.TwoPattern{tests, withX(tests, r), tests[1:2], tests[:65]}
}

func TestProgramMatchesDetects(t *testing.T) {
	circuits := []*circuit.Circuit{
		synth.MustGenerate(synth.BenchmarkProfiles["s1423"]),
		synth.MustGenerate(synth.BenchmarkProfiles["s953"]),
	}
	for i, src := range bench.Corpus {
		if c, err := bench.ParseCombinationalString(fmt.Sprintf("corpus%d", i), src); err == nil {
			circuits = append(circuits, c)
		}
	}
	for _, c := range circuits {
		t.Run(c.Name, func(t *testing.T) {
			fcs := screened(t, c, 400)
			r := rand.New(rand.NewSource(17))
			nonzero := 0
			for _, tests := range programTestSets(c, fcs, r) {
				nonzero += checkProgram(t, c, fcs, tests)
			}
			if len(fcs) > 0 && nonzero == 0 {
				t.Error("no fault detected in any batch; comparison vacuous")
			}
			if len(c.PIs) == 0 {
				return
			}
			// A test of the wrong width fails the run, naming its
			// index, when its batch is scanned: in the first batch
			// whenever there is a fault, in the second only if a
			// fault is left undetected by the first.
			prog := bitsim.Compile(c, fcs)
			for _, at := range []int{3, 66} {
				bad := randomTests(c, r, 70)
				bad[at].P3 = bad[at].P3[1:]
				before := bad[:at/bitsim.WordSize*bitsim.WordSize]
				want := faultsim.Run(c, before, fcs)
				got, err := prog.Run(context.Background(), bad)
				switch {
				case slices.Contains(want, -1):
					if err == nil || got != nil || !strings.Contains(err.Error(), fmt.Sprintf("test %d has", at)) {
						t.Errorf("test %d of the wrong width: Program.Run (%v, %v), want an error naming it", at, got, err)
					}
				case err != nil:
					t.Errorf("test %d of the wrong width, every fault detected before it: %v", at, err)
				default:
					checkFirst(t, c, fcs, got, want)
				}
			}
		})
	}
}

// An empty alternative covers the whole batch, and a fault without
// alternatives none of it.
func TestProgramEmptyAlternatives(t *testing.T) {
	c := bench.S27()
	tests := randomTests(c, rand.New(rand.NewSource(2)), 3)
	b, err := bitsim.Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	fcs := []robust.FaultConditions{{Alts: []robust.Cube{{}}}, {}}
	prog := bitsim.Compile(c, fcs)
	if got := prog.Detects(b, 0); got != 0b111 {
		t.Errorf("empty alternative mask = %b, want 111", got)
	}
	if got := prog.Detects(b, 1); got != 0 {
		t.Errorf("fault with no alternatives mask = %b, want 0", got)
	}
}

// errAfter is a context whose Err reports cancellation from its n+1th
// call on, so a run is canceled between two batches.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestProgramRunCanceled(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	prog := bitsim.Compile(c, fcs)
	tests := randomTests(c, rand.New(rand.NewSource(5)), 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.Run(ctx, tests); err != context.Canceled {
		t.Errorf("canceled Program.Run err = %v, want context.Canceled", err)
	}
	// Canceled after the first batch: both stop with the same error,
	// and an undetected fault keeps the scan going that long.
	none := []robust.FaultConditions{{Alts: []robust.Cube{{Nets: []int{c.PIs[0]}, Vals: []tval.Triple{tval.S1}}}}}
	allX := make([]circuit.TwoPattern, 200)
	for i := range allX {
		allX[i] = circuit.TwoPattern{P1: make([]tval.V, len(c.PIs)), P3: make([]tval.V, len(c.PIs))}
		for k := range allX[i].P1 {
			allX[i].P1[k], allX[i].P3[k] = tval.X, tval.X
		}
	}
	if _, err := bitsim.Compile(c, none).Run(&errAfter{Context: context.Background(), n: 1}, allX); err != context.Canceled {
		t.Errorf("Program.Run canceled between batches: err = %v, want context.Canceled", err)
	}
	if _, err := bitsim.RunContext(&errAfter{Context: context.Background(), n: 1}, c, allX, none); err != context.Canceled {
		t.Errorf("RunContext canceled between batches: err = %v, want context.Canceled", err)
	}
}

// FuzzProgram checks the compiled program against the cube walk and
// the scalar simulator on parsed circuits, seeded from the parser's
// corpus, with tests read from the fuzzer's bytes: one value per byte,
// 0, 1 or x.
func FuzzProgram(f *testing.F) {
	for i, src := range bench.Corpus {
		f.Add(src, []byte{byte(i), 1, 2, 0, 1, 1, 0, 2, 1, 0, 0, 1, 2, 2, 1, 0})
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		c, err := bench.ParseCombinationalString("fuzz", src)
		if err != nil || len(c.Lines) > 512 || len(c.PIs) == 0 {
			return
		}
		fcs := screened(t, c, 200)
		width := 2 * len(c.PIs)
		var tests []circuit.TwoPattern
		for k := 0; k+width <= len(data) && len(tests) < 2*bitsim.WordSize+1; k += width {
			tp := circuit.TwoPattern{P1: make([]tval.V, len(c.PIs)), P3: make([]tval.V, len(c.PIs))}
			for i := range tp.P1 {
				tp.P1[i] = fuzzValue(data[k+i])
				tp.P3[i] = fuzzValue(data[k+len(c.PIs)+i])
			}
			tests = append(tests, tp)
		}
		checkProgram(t, c, fcs, tests)
	})
}

func fuzzValue(b byte) tval.V {
	switch b % 3 {
	case 0:
		return tval.Zero
	case 1:
		return tval.One
	}
	return tval.X
}
