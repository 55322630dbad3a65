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

// faninCone marks the transitive fanin of the given nets.
func faninCone(c *circuit.Circuit, nets []int) []bool {
	cone := make([]bool, len(c.Lines))
	var visit func(net int)
	visit = func(net int) {
		if cone[net] {
			return
		}
		cone[net] = true
		if g := c.Lines[net].Gate; g >= 0 {
			for _, in := range c.Gates[g].InNets {
				visit(in)
			}
		}
	}
	for _, n := range nets {
		visit(n)
	}
	return cone
}

// TestAssignWithinMatchesAssign drives a full and a cone-limited
// simulator through the same x-bearing assignment orders. Inside the
// cone the two must agree on every net and plane; outside it only the
// assigned primary inputs may change; every changed list stays inside
// cone ∪ {pi}; and a tentative cone-limited assignment rolls back to
// the exact prior state.
func TestAssignWithinMatchesAssign(t *testing.T) {
	circuits := []*circuit.Circuit{sharedPinCircuit(t)}
	for seed := int64(1); seed <= 6; seed++ {
		circuits = append(circuits, circuit.RandomTestCircuit(t, seed, 10, 40))
	}
	r := rand.New(rand.NewSource(5))
	type pos struct{ pi, plane int }
	for _, c := range circuits {
		var nets []int // PIs and stems
		for id := range c.Lines {
			if c.Lines[id].Net == id {
				nets = append(nets, id)
			}
		}
		for trial := 0; trial < 40; trial++ {
			roots := make([]int, 1+r.Intn(3))
			for i := range roots {
				roots[i] = nets[r.Intn(len(nets))]
			}
			cone := faninCone(c, roots)
			tp := randomTests(c, r, 1)[0]
			var order []pos
			for i, pi := range c.PIs {
				if tp.P1[i] != tval.X {
					order = append(order, pos{pi, 0})
				}
				if tp.P3[i] != tval.X {
					order = append(order, pos{pi, 2})
				}
				if tp.P1[i] != tval.X && tp.P1[i] == tp.P3[i] {
					order = append(order, pos{pi, 1})
				}
			}
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			value := func(p pos) tval.V {
				i := c.PIIndex(p.pi)
				if p.plane == 2 {
					return tp.P3[i]
				}
				return tp.P1[i]
			}

			full, coned := circuit.NewSimulator(c), circuit.NewSimulator(c)
			assigned := make(map[int]bool)
			checkChanged := func(changed []int, pi int) {
				for _, n := range changed {
					if n != pi && !cone[n] {
						t.Fatalf("%s trial %d: net %s changed outside the cone", c.Name, trial, c.Lines[n].Name)
					}
				}
			}
			for step, p := range order {
				// A tentative assignment of a still-x position must
				// roll back to the exact prior state.
				pi := c.PIs[r.Intn(len(c.PIs))]
				if plane := 2 * r.Intn(2); coned.Value(pi, plane) == tval.X {
					var before [circuit.NumPlanes][]tval.V
					for pl := range before {
						for id := range c.Lines {
							before[pl] = append(before[pl], coned.Value(id, pl))
						}
					}
					m := coned.Snapshot()
					checkChanged(coned.AssignWithin(pi, plane, tval.V(r.Intn(2)), cone), pi)
					coned.RollbackTo(m)
					for pl := range before {
						for id := range c.Lines {
							if got := coned.Value(id, pl); got != before[pl][id] {
								t.Fatalf("%s trial %d step %d: rollback left line %s plane %d at %v, want %v",
									c.Name, trial, step, c.Lines[id].Name, pl, got, before[pl][id])
							}
						}
					}
				}

				v := value(p)
				full.Assign(p.pi, p.plane, v)
				checkChanged(coned.AssignWithin(p.pi, p.plane, v, cone), p.pi)
				assigned[p.pi] = true
				for id := range c.Lines {
					net := c.Lines[id].Net
					for pl := 0; pl < circuit.NumPlanes; pl++ {
						got, want := coned.Value(id, pl), full.Value(id, pl)
						switch {
						case cone[net] || assigned[net]:
							if got != want {
								t.Fatalf("%s trial %d step %d: line %s plane %d: cone-limited %v, full %v",
									c.Name, trial, step, c.Lines[id].Name, pl, got, want)
							}
						case got != tval.X:
							t.Fatalf("%s trial %d step %d: line %s outside the cone set to %v on plane %d",
								c.Name, trial, step, c.Lines[id].Name, got, pl)
						}
					}
				}
			}
		}
	}
}
