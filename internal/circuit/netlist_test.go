package circuit_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
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
		if c.Level(gi) != lv {
			t.Fatalf("%s: gate %s at level %d, want %d", c.Name, g.Name, c.Level(gi), lv)
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
				sim.Assign(i, 0, tp.P1[i])
				sim.Assign(i, 2, tp.P3[i])
				if tp.P1[i] == tp.P3[i] {
					sim.Assign(i, 1, tp.P1[i])
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

// checkCompiledCone drives a simulator compiled to the fanin cone of a
// random cube and a whole-circuit simulator through the same x-bearing
// assignment order, with a tentative assignment of a still-x position
// rolled back before each step. The compiled set must be the cone plus
// every primary input, with primary input i at slot i and every gate
// above its drivers. After every assignment the two must agree on all
// three planes of every compiled net, the compiled changed set must be
// the whole-circuit one restricted to the compiled nets, both must
// report the same conflicts with the cube, and every line outside the
// compiled set must read x. A rollback must restore the exact prior
// state.
func checkCompiledCone(t testing.TB, c *circuit.Circuit, r *rand.Rand, trials int) {
	t.Helper()
	if len(c.PIs) == 0 {
		return
	}
	var nets []int // PIs and stems
	for id := range c.Lines {
		if c.Lines[id].Net == id {
			nets = append(nets, id)
		}
	}
	whole, coned := circuit.NewSimulator(c), circuit.NewSimulator(c)
	type pos struct{ pi, plane int }
	for trial := 0; trial < trials; trial++ {
		req := make(map[int]tval.Triple)
		var roots []int
		for n := 1 + r.Intn(3); n > 0; n-- {
			net := nets[r.Intn(len(nets))]
			req[net] = tval.NewTriple(tval.V(r.Intn(3)), tval.V(r.Intn(3)), tval.V(r.Intn(3)))
			roots = append(roots, net)
		}
		cone := faninCone(c, roots)
		var coneList []int
		for net, in := range cone {
			if in {
				coneList = append(coneList, net)
			}
		}
		r.Shuffle(len(coneList), func(i, j int) { coneList[i], coneList[j] = coneList[j], coneList[i] })
		coned.Compile(coneList)
		whole.Reset()

		compiled := make(map[int]bool)
		for k := 0; k < coned.Len(); k++ {
			net := coned.Net(k)
			compiled[net] = true
			if coned.Slot(net) != k {
				t.Fatalf("%s trial %d: net %s at slot %d, Slot says %d", c.Name, trial, c.Lines[net].Name, k, coned.Slot(net))
			}
			if g := c.Lines[net].Gate; g >= 0 {
				for _, in := range c.Gates[g].InNets {
					if coned.Slot(in) >= k {
						t.Fatalf("%s trial %d: gate %s at slot %d reads slot %d", c.Name, trial, c.Lines[net].Name, k, coned.Slot(in))
					}
				}
			}
		}
		for i, pi := range c.PIs {
			if coned.Slot(pi) != i {
				t.Fatalf("%s trial %d: primary input %d at slot %d", c.Name, trial, i, coned.Slot(pi))
			}
		}
		for _, net := range nets {
			if want := cone[net] || c.Lines[net].Kind == circuit.LinePI; compiled[net] != want {
				t.Fatalf("%s trial %d: net %s compiled=%v, want %v", c.Name, trial, c.Lines[net].Name, compiled[net], want)
			}
		}

		conflict := func(s *circuit.Simulator, changed []int, plane int) bool {
			for _, k := range changed {
				if q, ok := req[s.Net(k)]; ok && q.At(plane) != tval.X && s.At(k, plane) != q.At(plane) {
					return true
				}
			}
			return false
		}
		assign := func(where string, pi, plane int, v tval.V) {
			t.Helper()
			var wantNets, gotNets []int
			changed := whole.Assign(pi, plane, v)
			wantConflict := conflict(whole, changed, plane)
			for _, k := range changed {
				if compiled[whole.Net(k)] {
					wantNets = append(wantNets, whole.Net(k))
				}
			}
			changed = coned.Assign(pi, plane, v)
			gotConflict := conflict(coned, changed, plane)
			for _, k := range changed {
				gotNets = append(gotNets, coned.Net(k))
			}
			slices.Sort(wantNets)
			slices.Sort(gotNets)
			if !slices.Equal(gotNets, wantNets) {
				t.Fatalf("%s trial %d %s: compiled changed %v, whole-circuit %v", c.Name, trial, where, gotNets, wantNets)
			}
			if gotConflict != wantConflict {
				t.Fatalf("%s trial %d %s: compiled conflict %v, whole-circuit %v", c.Name, trial, where, gotConflict, wantConflict)
			}
			for id := range c.Lines {
				want := tval.TX
				if compiled[c.Lines[id].Net] {
					want = whole.Triple(id)
				}
				if got := coned.Triple(id); got != want {
					t.Fatalf("%s trial %d %s: line %s compiled %v, want %v", c.Name, trial, where, c.Lines[id].Name, got, want)
				}
			}
		}

		tp := randomTests(c, r, 1)[0]
		var order []pos
		for i := range c.PIs {
			if tp.P1[i] != tval.X {
				order = append(order, pos{i, 0})
			}
			if tp.P3[i] != tval.X {
				order = append(order, pos{i, 2})
			}
			if tp.P1[i] != tval.X && tp.P1[i] == tp.P3[i] {
				order = append(order, pos{i, 1})
			}
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for step, p := range order {
			if pi, plane := r.Intn(len(c.PIs)), 2*r.Intn(2); coned.At(pi, plane) == tval.X {
				before := make([]tval.Triple, len(c.Lines))
				for id := range before {
					before[id] = coned.Triple(id)
				}
				mw, mc := whole.Snapshot(), coned.Snapshot()
				assign(fmt.Sprintf("step %d (tentative)", step), pi, plane, tval.V(r.Intn(2)))
				whole.RollbackTo(mw)
				coned.RollbackTo(mc)
				for id := range before {
					if got := coned.Triple(id); got != before[id] {
						t.Fatalf("%s trial %d step %d: rollback left line %s at %v, want %v",
							c.Name, trial, step, c.Lines[id].Name, got, before[id])
					}
				}
			}
			v := tp.P1[p.pi]
			if p.plane == 2 {
				v = tp.P3[p.pi]
			}
			assign(fmt.Sprintf("step %d", step), p.pi, p.plane, v)
		}
	}
}

// TestCompiledConeMatchesWholeCircuit runs checkCompiledCone on
// circuits with shared pins and on random circuits, recompiling one
// simulator for every cube.
func TestCompiledConeMatchesWholeCircuit(t *testing.T) {
	circuits := []*circuit.Circuit{sharedPinCircuit(t), bench.S27(), bench.C17()}
	for seed := int64(1); seed <= 6; seed++ {
		circuits = append(circuits, circuit.RandomTestCircuit(t, seed, 10, 40))
	}
	r := rand.New(rand.NewSource(5))
	for _, c := range circuits {
		checkCompiledCone(t, c, r, 40)
	}
}

// FuzzCompiledCone runs checkCompiledCone on parsed circuits, seeded
// from the parser's corpus.
func FuzzCompiledCone(f *testing.F) {
	for i, src := range bench.Corpus {
		f.Add(src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		c, err := bench.ParseCombinationalString("fuzz", src)
		if err != nil || len(c.Lines) > 4096 {
			return
		}
		checkCompiledCone(t, c, rand.New(rand.NewSource(seed)), 8)
	})
}
