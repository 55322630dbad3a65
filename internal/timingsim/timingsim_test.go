package timingsim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/tval"
)

func TestSimulateInverterChain(t *testing.T) {
	b := circuit.NewBuilder("chain")
	a := b.AddInput("a")
	n1 := b.AddGate(circuit.Not, "n1", a)
	n2 := b.AddGate(circuit.Not, "n2", n1)
	b.MarkOutput(n2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays := UniformDelays(c, 2)
	test := circuit.TwoPattern{P1: []tval.V{tval.Zero}, P3: []tval.V{tval.One}}
	r, err := Simulate(c, delays, test)
	if err != nil {
		t.Fatal(err)
	}
	// a rises at t=2, n1 falls at 4, n2 rises at 6.
	n2l := c.LineByName("n2")
	wf := r.Waveforms[n2l.ID]
	if wf[0].V != tval.Zero {
		t.Errorf("n2 initial = %v, want 0", wf[0].V)
	}
	if wf.Settled() != tval.One {
		t.Errorf("n2 settled = %v, want 1", wf.Settled())
	}
	if got := wf.SettleTime(); got != 6 {
		t.Errorf("n2 settles at %d, want 6", got)
	}
	if r.SettleTime() != 6 {
		t.Errorf("circuit settles at %d, want 6", r.SettleTime())
	}
	if wf.At(5) != tval.Zero || wf.At(6) != tval.One {
		t.Error("At() misreads the waveform")
	}
}

func TestSimulateGlitch(t *testing.T) {
	// y = AND(a, NOT(a)): a rising input creates a static-0 hazard
	// whose width equals the inverter delay.
	b := circuit.NewBuilder("glitch")
	a := b.AddInput("a")
	n := b.AddGate(circuit.Not, "n", a)
	y := b.AddGate(circuit.And, "y", a, n)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays := UniformDelays(c, 1)
	test := circuit.TwoPattern{P1: []tval.V{tval.Zero}, P3: []tval.V{tval.One}}
	r, err := Simulate(c, delays, test)
	if err != nil {
		t.Fatal(err)
	}
	y2 := c.LineByName("y")
	wf := r.Waveforms[y2.ID]
	// Initial 0, glitch to 1 when a's rise reaches the AND before n's
	// fall, back to 0.
	if len(wf) != 3 {
		t.Fatalf("expected a glitch (3 waveform entries), got %v", wf)
	}
	if wf.Settled() != tval.Zero {
		t.Errorf("settled = %v, want 0", wf.Settled())
	}
	if wf[1].V != tval.One {
		t.Errorf("glitch value = %v, want 1", wf[1].V)
	}
}

func TestPathDelayHelpers(t *testing.T) {
	c := bench.S27()
	d := UniformDelays(c, 1)
	g2 := c.LineByName("G2")
	g13 := c.LineByName("G13")
	path := []int{g2.ID, g13.ID}
	if got := d.PathDelay(path); got != 2 {
		t.Errorf("PathDelay = %d, want 2", got)
	}
	d2 := d.WithExtraOnPath(path, 5)
	if got := d2.PathDelay(path); got != 7 {
		t.Errorf("after injection PathDelay = %d, want 7", got)
	}
	if d.PathDelay(path) != 2 {
		t.Error("injection must not mutate the original assignment")
	}
}

// TestRobustTestsDetectUnderAnyDelays is the end-to-end validation of
// the whole flow: for every robustly testable fault of s27 with a
// generated test, and for many random delay assignments, injecting
// enough extra delay on the faulty path makes the sampled output value
// wrong — the defining guarantee of robust tests.
func TestRobustTestsDetectUnderAnyDelays(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	j := justify.New(c, justify.Config{Seed: 31})
	rng := rand.New(rand.NewSource(99))
	validated := 0
	for i := range kept {
		f := &kept[i].Fault
		test, ok := j.Justify(&kept[i].Alts[0])
		if !ok {
			continue
		}
		if !faultsim.Detects(c, test, &kept[i]) {
			t.Fatalf("generated test does not detect its fault in logic simulation")
		}
		for trial := 0; trial < 20; trial++ {
			delays := make(Delays, len(c.Lines))
			for l := range delays {
				delays[l] = 1 + rng.Intn(9)
			}
			ff, err := Simulate(c, delays, test)
			if err != nil {
				t.Fatal(err)
			}
			// Clock period: the fault-free circuit settles in time.
			period := ff.SettleTime()
			// Inject enough extra delay that the faulty path exceeds
			// the period.
			extra := period - delays.PathDelay(f.Path) + 1 + rng.Intn(5)
			if extra <= 0 {
				extra = 1
			}
			faulty := delays.WithExtraOnPath(f.Path, extra)
			fr, err := Simulate(c, faulty, test)
			if err != nil {
				t.Fatal(err)
			}
			if !Detected(fr, f.Path, period, ff) {
				t.Fatalf("robust test missed fault %s under delays %v (period %d, extra %d)\ntest %v",
					f.Format(c), delays, period, extra, test)
			}
			validated++
		}
	}
	if validated == 0 {
		t.Fatal("no validations performed")
	}
	t.Logf("validated robust detection in %d fault × delay-assignment combinations", validated)
}

// TestFaultFreeCircuitPassesAtPeriod: sanity — without injection, the
// sampled value at the settle-time period equals the expected value.
func TestFaultFreeCircuitPassesAtPeriod(t *testing.T) {
	c := bench.S27()
	rng := rand.New(rand.NewSource(5))
	test := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i := range test.P1 {
		test.P1[i] = tval.V(rng.Intn(2))
		test.P3[i] = tval.V(rng.Intn(2))
	}
	delays := make(Delays, len(c.Lines))
	for l := range delays {
		delays[l] = 1 + rng.Intn(5)
	}
	r, err := Simulate(c, delays, test)
	if err != nil {
		t.Fatal(err)
	}
	period := r.SettleTime()
	for _, po := range c.POs {
		if got := r.Waveforms[po].At(period); got != r.Waveforms[po].Settled() {
			t.Errorf("PO %s wrong at its own settle time", c.Lines[po].Name)
		}
	}
}

// TestSettledMatchesLogicSimulation: the timing simulator's settled
// state must agree with the zero-delay logic simulation of the second
// pattern, for random tests and random delays.
func TestSettledMatchesLogicSimulation(t *testing.T) {
	c := bench.S27()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		test := circuit.TwoPattern{
			P1: make([]tval.V, len(c.PIs)),
			P3: make([]tval.V, len(c.PIs)),
		}
		for i := range test.P1 {
			test.P1[i] = tval.V(rng.Intn(2))
			test.P3[i] = tval.V(rng.Intn(2))
		}
		delays := make(Delays, len(c.Lines))
		for l := range delays {
			delays[l] = 1 + rng.Intn(7)
		}
		r, err := Simulate(c, delays, test)
		if err != nil {
			t.Fatal(err)
		}
		want := test.Simulate(c) // three-plane logic simulation
		for id := range c.Lines {
			if got := r.Waveforms[id].Settled(); got != want[id].P3() {
				t.Fatalf("trial %d line %s: timing settles to %v, logic says %v",
					trial, c.Lines[id].Name, got, want[id].P3())
			}
			if init := r.Waveforms[id][0].V; init != want[id].P1() {
				t.Fatalf("trial %d line %s: initial %v, logic says %v",
					trial, c.Lines[id].Name, init, want[id].P1())
			}
		}
	}
}

func TestSimulateRejectsPartialTest(t *testing.T) {
	c := bench.S27()
	test := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i := range test.P1 {
		test.P1[i] = tval.X
		test.P3[i] = tval.X
	}
	if _, err := Simulate(c, UniformDelays(c, 1), test); err == nil {
		t.Error("partial test must be rejected")
	}
}

func TestSimulateRejectsWrongDelayCount(t *testing.T) {
	c := bench.S27()
	test := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	if _, err := Simulate(c, Delays{1, 2}, test); err == nil {
		t.Error("wrong delay count must be rejected")
	}
}

func TestWithExtraDistributed(t *testing.T) {
	c := bench.S27()
	d := UniformDelays(c, 1)
	g1 := c.LineByName("G1")
	g12 := c.LineByName("G12")
	br := c.LineByName("G12->G13")
	g13 := c.LineByName("G13")
	path := []int{g1.ID, g12.ID, br.ID, g13.ID}
	d2 := d.WithExtraDistributed(path, 10)
	if got := d2.PathDelay(path) - d.PathDelay(path); got != 10 {
		t.Errorf("distributed extra sums to %d, want 10", got)
	}
	// 10 over 4 lines: 3,3,2,2.
	if d2[g1.ID] != 4 || d2[g12.ID] != 4 || d2[br.ID] != 3 || d2[g13.ID] != 3 {
		t.Errorf("distribution wrong: %d %d %d %d",
			d2[g1.ID], d2[g12.ID], d2[br.ID], d2[g13.ID])
	}
	if d.PathDelay(path) != 4 {
		t.Error("original mutated")
	}
	// Degenerate inputs.
	if got := d.WithExtraDistributed(nil, 5).PathDelay(path); got != 4 {
		t.Error("empty path must be a no-op")
	}
	if got := d.WithExtraDistributed(path, 0).PathDelay(path); got != 4 {
		t.Error("zero extra must be a no-op")
	}
}

// TestDistributedDefectStillRobustlyDetected: robust tests also catch
// the distributed-defect mechanism.
func TestDistributedDefectStillRobustlyDetected(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	j := justify.New(c, justify.Config{Seed: 77})
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for i := range kept {
		f := &kept[i].Fault
		test, ok := j.Justify(&kept[i].Alts[0])
		if !ok {
			continue
		}
		delays := make(Delays, len(c.Lines))
		for l := range delays {
			delays[l] = 1 + rng.Intn(6)
		}
		ff, err := Simulate(c, delays, test)
		if err != nil {
			t.Fatal(err)
		}
		period := ff.SettleTime()
		extra := period - delays.PathDelay(f.Path) + 3
		if extra <= 0 {
			extra = 3
		}
		faulty, err := Simulate(c, delays.WithExtraDistributed(f.Path, extra), test)
		if err != nil {
			t.Fatal(err)
		}
		if !Detected(faulty, f.Path, period, ff) {
			t.Fatalf("distributed defect missed on %s", f.Format(c))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// PathDelay returns the total delay of a path under the assignment.
func (d Delays) PathDelay(path []int) int {
	total := 0
	for _, l := range path {
		total += d[l]
	}
	return total
}
