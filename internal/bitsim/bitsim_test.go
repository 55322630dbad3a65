package bitsim_test

import (
	"context"
	"math/rand"
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

func randomTests(c *circuit.Circuit, r *rand.Rand, n int) []circuit.TwoPattern {
	out := make([]circuit.TwoPattern, n)
	for i := range out {
		out[i] = circuit.TwoPattern{
			P1: make([]tval.V, len(c.PIs)),
			P3: make([]tval.V, len(c.PIs)),
		}
		for k := range out[i].P1 {
			out[i].P1[k] = tval.V(r.Intn(2))
			out[i].P3[k] = tval.V(r.Intn(2))
		}
	}
	return out
}

// withX returns a copy of tests in which about a quarter of the input
// positions of both patterns are x.
func withX(tests []circuit.TwoPattern, r *rand.Rand) []circuit.TwoPattern {
	out := make([]circuit.TwoPattern, len(tests))
	for i, tp := range tests {
		p1 := append([]tval.V(nil), tp.P1...)
		p3 := append([]tval.V(nil), tp.P3...)
		for k := range p1 {
			if r.Intn(4) == 0 {
				p1[k] = tval.X
			}
			if r.Intn(4) == 0 {
				p3[k] = tval.X
			}
		}
		out[i] = circuit.TwoPattern{P1: p1, P3: p3}
	}
	return out
}

// checkBatch compares every line and plane of a batch against the
// scalar three-valued simulation of each test.
func checkBatch(t *testing.T, c *circuit.Circuit, tests []circuit.TwoPattern) {
	t.Helper()
	b, err := bitsim.Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tp := range tests {
		want := tp.Simulate(c)
		for id := range c.Lines {
			for p := 0; p < circuit.NumPlanes; p++ {
				if got := b.Value(id, p, ti); got != want[id].At(p) {
					t.Fatalf("%s test %d (%v) line %s plane %d: bitsim %v, scalar %v",
						c.Name, ti, tp, c.Lines[id].Name, p, got, want[id].At(p))
				}
			}
		}
	}
}

func TestBatchMatchesScalarSimulation(t *testing.T) {
	for _, name := range []string{"s27", "b03", "s1196"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var c *circuit.Circuit
			if name == "s27" {
				c = bench.S27()
			} else {
				c = synth.MustGenerate(synth.BenchmarkProfiles[name])
			}
			r := rand.New(rand.NewSource(3))
			tests := randomTests(c, r, 64)
			checkBatch(t, c, tests)
			checkBatch(t, c, withX(tests, r))
		})
	}
}

func TestCoversMatchesScalar(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	r := rand.New(rand.NewSource(7))
	tests := randomTests(c, r, 64)
	b, err := bitsim.Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		mask := b.Detects(&kept[i])
		for ti, tp := range tests {
			scalar := faultsim.Detects(c, tp, &kept[i])
			parallel := mask&(1<<uint(ti)) != 0
			if scalar != parallel {
				t.Fatalf("fault %s test %d: scalar %v, parallel %v",
					kept[i].Fault.Format(c), ti, scalar, parallel)
			}
		}
	}
}

func TestRunMatchesScalarRun(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b09"])
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 600, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	r := rand.New(rand.NewSource(11))
	// Random tests rarely hit long-path faults; mix in generated tests
	// so the comparison is non-vacuous, and let the set cross two
	// batch boundaries. Tests 40..89 carry x in both patterns, across
	// the first boundary, and the generated tests are followed by
	// x-bearing copies.
	j := justify.New(c, justify.Config{Seed: 13})
	tests := randomTests(c, r, 100)
	copy(tests[40:90], withX(tests[40:90], r))
	var generated []circuit.TwoPattern
	for i := range kept {
		if len(generated) >= 50 {
			break
		}
		if tp, ok := j.Justify(&kept[i].Alts[0]); ok {
			generated = append(generated, tp)
		}
	}
	tests = append(tests, withX(generated, r)...)
	tests = append(tests, generated...)
	scalar := faultsim.Run(c, tests, kept)
	parallel, err := bitsim.Run(c, tests, kept)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if scalar[i] != parallel[i] {
			t.Fatalf("fault %d: scalar first-detection %d, parallel %d",
				i, scalar[i], parallel[i])
		}
	}
	sc := 0
	for _, d := range scalar {
		if d >= 0 {
			sc++
		}
	}
	pc, err := bitsim.Count(c, tests, kept)
	if err != nil {
		t.Fatal(err)
	}
	if sc != pc {
		t.Fatalf("counts differ: %d vs %d", sc, pc)
	}
	if pc == 0 {
		t.Error("no detections; comparison vacuous")
	}
	byX := 0
	for _, d := range scalar {
		if d >= 0 && !tests[d].FullySpecified() {
			byX++
		}
	}
	if byX == 0 {
		t.Error("no fault first detected by an x-bearing test; comparison vacuous")
	}
}

func TestRunContextCanceled(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	tests := randomTests(c, rand.New(rand.NewSource(5)), 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bitsim.RunContext(ctx, c, tests, kept); err != context.Canceled {
		t.Errorf("canceled RunContext err = %v, want context.Canceled", err)
	}
}

func TestSimulateErrors(t *testing.T) {
	c := bench.S27()
	if _, err := bitsim.Simulate(c, nil); err == nil {
		t.Error("empty batch must be rejected")
	}
	r := rand.New(rand.NewSource(1))
	if _, err := bitsim.Simulate(c, randomTests(c, r, 65)); err == nil {
		t.Error("oversized batch must be rejected")
	}
	short := randomTests(c, r, 1)
	short[0].P3 = short[0].P3[1:]
	if _, err := bitsim.Simulate(c, short); err == nil {
		t.Error("test shorter than the input list must be rejected")
	}
	// A partial test simulates and matches the scalar simulator.
	partial := randomTests(c, r, 1)
	partial[0].P1[0] = tval.X
	checkBatch(t, c, partial)
}

func TestSmallBatchMask(t *testing.T) {
	c := bench.S27()
	r := rand.New(rand.NewSource(2))
	tests := randomTests(c, r, 3)
	b, err := bitsim.Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	// A trivially satisfied cube must report exactly the batch mask.
	var q robust.Cube
	if got := b.Covers(&q); got != 0b111 {
		t.Errorf("empty cube coverage mask = %b, want 111", got)
	}
}

// TestBatchMatchesScalarOnRandomCircuits is a property check over many
// random circuit shapes, including duplicate gate inputs and XNOR
// parity chains.
func TestBatchMatchesScalarOnRandomCircuits(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := circuit.NewBuilder("rnd")
		var nets []int
		for i := 0; i < 6+r.Intn(6); i++ {
			nets = append(nets, b.AddInput(rname("i", i)))
		}
		types := []circuit.GateType{
			circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
			circuit.Not, circuit.Buf, circuit.Xor, circuit.Xnor,
		}
		for g := 0; g < 20+r.Intn(30); g++ {
			gt := types[r.Intn(len(types))]
			a := nets[r.Intn(len(nets))]
			if gt == circuit.Not || gt == circuit.Buf {
				nets = append(nets, b.AddGate(gt, rname("g", g), a))
				continue
			}
			ins := []int{a}
			for k := 0; k < 1+r.Intn(3); k++ {
				ins = append(ins, nets[r.Intn(len(nets))]) // duplicates allowed
			}
			nets = append(nets, b.AddGate(gt, rname("g", g), ins...))
		}
		for _, n := range nets {
			b.MarkOutput(n)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tests := randomTests(c, r, 64)
		checkBatch(t, c, tests)
		checkBatch(t, c, withX(tests, r))
	}
}

func rname(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
