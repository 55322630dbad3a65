package circuit_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// sharedPinCircuit builds gates that read one net on several pins, the
// case where a fanout list holds a gate twice.
func sharedPinCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("shared-pins")
	a, x, y := b.AddInput("a"), b.AddInput("b"), b.AddInput("c")
	and := b.AddGate(circuit.And, "and_aa", a, a)
	xor := b.AddGate(circuit.Xor, "xor_aa", a, a)
	nand := b.AddGate(circuit.Nand, "nand_aba", a, x, a)
	or := b.AddGate(circuit.Or, "or", nand, nand, y)
	nor := b.AddGate(circuit.Nor, "nor", xor, x)
	buf := b.AddGate(circuit.Buf, "buf", or)
	not := b.AddGate(circuit.Not, "not", nor)
	xnor := b.AddGate(circuit.Xnor, "xnor", buf, and, buf, not)
	for _, n := range []int{and, nand, xnor} {
		b.MarkOutput(n)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkNetlist compares the structure Build resolved against its
// definition: input nets, fanout in gate order with one entry per pin,
// and levels above every driver.
func checkNetlist(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	fanout := make([][]int, len(c.Lines))
	for gi := range c.Gates {
		g := &c.Gates[gi]
		if len(g.InNets) != len(g.In) {
			t.Fatalf("%s: gate %s has %d input nets for %d pins", c.Name, g.Name, len(g.InNets), len(g.In))
		}
		lv := 0
		for k, in := range g.In {
			net := c.Lines[in].Net
			if g.InNets[k] != net {
				t.Fatalf("%s: gate %s pin %d: InNets %d, line net %d", c.Name, g.Name, k, g.InNets[k], net)
			}
			fanout[net] = append(fanout[net], gi)
			if d := c.Lines[net].Gate; d >= 0 {
				lv = max(lv, c.Level(d)+1)
			}
		}
		if c.Level(gi) != lv || lv > c.MaxLevel() {
			t.Fatalf("%s: gate %s at level %d, want %d (max %d)", c.Name, g.Name, c.Level(gi), lv, c.MaxLevel())
		}
	}
	for net := range c.Lines {
		got := c.Fanout(net)
		if len(got) != len(fanout[net]) {
			t.Fatalf("%s: net %s fanout %v, want %v", c.Name, c.Lines[net].Name, got, fanout[net])
		}
		for i := range got {
			if got[i] != fanout[net][i] {
				t.Fatalf("%s: net %s fanout %v, want %v", c.Name, c.Lines[net].Name, got, fanout[net])
			}
		}
	}
}

// randomTests draws tests whose inputs are 0, 1 or x.
func randomTests(c *circuit.Circuit, r *rand.Rand, n int) []circuit.TwoPattern {
	tests := make([]circuit.TwoPattern, n)
	for i := range tests {
		tp := circuit.TwoPattern{P1: make([]tval.V, len(c.PIs)), P3: make([]tval.V, len(c.PIs))}
		for k := range tp.P1 {
			tp.P1[k], tp.P3[k] = tval.V(r.Intn(3)), tval.V(r.Intn(3))
		}
		tests[i] = tp
	}
	return tests
}

// piCube is the cube requiring exactly the primary-input values of a
// test: its pattern values, and the intermediate value wherever both
// patterns agree.
func piCube(c *circuit.Circuit, tp circuit.TwoPattern) *robust.Cube {
	q := &robust.Cube{Nets: append([]int(nil), c.PIs...)} // PI line IDs ascend
	for i := range c.PIs {
		mid := tval.X
		if tp.P1[i] == tp.P3[i] {
			mid = tp.P1[i]
		}
		q.Vals = append(q.Vals, tval.NewTriple(tp.P1[i], mid, tp.P3[i]))
	}
	return q
}

// TestSimulatorsMatchSimulateTriples checks every simulator that runs
// on the netlist Build resolves — the incremental Simulator with
// inputs assigned in random order, bitsim's batches and the implier's
// fixpoint on the primary-input cube — against SimulateTriples, on
// every line and plane of tests with x.
func TestSimulatorsMatchSimulateTriples(t *testing.T) {
	circuits := []*circuit.Circuit{sharedPinCircuit(t)}
	for seed := int64(1); seed <= 6; seed++ {
		circuits = append(circuits, circuit.RandomTestCircuit(t, seed, 10, 40))
	}
	r := rand.New(rand.NewSource(3))
	for _, c := range circuits {
		checkNetlist(t, c)
		tests := randomTests(c, r, bitsim.WordSize)
		batch, err := bitsim.Simulate(c, tests)
		if err != nil {
			t.Fatal(err)
		}
		sim := circuit.NewSimulator(c)
		im := robust.NewImplier(c)
		for ti, tp := range tests {
			sim.Reset()
			for _, i := range r.Perm(len(c.PIs)) {
				pi := c.PIs[i]
				sim.Assign(pi, 0, tp.P1[i])
				sim.Assign(pi, 2, tp.P3[i])
				if tp.P1[i] == tp.P3[i] {
					sim.Assign(pi, 1, tp.P1[i])
				}
			}
			if !im.ImplyConsistent(piCube(c, tp)) {
				t.Fatalf("%s test %d (%v): primary-input cube reported inconsistent", c.Name, ti, tp)
			}
			want := circuit.SimulateTriples(c, tp.P1, tp.P3)
			for id := range c.Lines {
				for p := 0; p < circuit.NumPlanes; p++ {
					w := want[id].At(p)
					for _, got := range []struct {
						sim string
						v   tval.V
					}{
						{"Simulator", sim.Value(id, p)},
						{"bitsim", batch.Value(id, p, ti)},
						{"Implier", im.Value(id, p)},
					} {
						if got.v != w {
							t.Fatalf("%s test %d (%v) line %s plane %d: %s %v, SimulateTriples %v",
								c.Name, ti, tp, c.Lines[id].Name, p, got.sim, got.v, w)
						}
					}
				}
			}
		}
	}
}
