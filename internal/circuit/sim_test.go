package circuit

import (
	"math/rand"
	"testing"

	"repro/internal/tval"
)

func TestSimulatorFullAssign(t *testing.T) {
	c := buildSmall(t) // y = NAND(a, OR(b,c)), or1 also PO
	s := NewSimulator(c)
	a, b, cc := c.LineByName("a"), c.LineByName("b"), c.LineByName("c")
	or, y := c.LineByName("or1"), c.LineByName("y")

	s.Assign(c.PIIndex(a.ID), 0, tval.One)
	s.Assign(c.PIIndex(b.ID), 0, tval.Zero)
	if got := s.Value(y.ID, 0); got != tval.X {
		t.Errorf("y undetermined inputs: got %v, want x", got)
	}
	s.Assign(c.PIIndex(cc.ID), 0, tval.One)
	if got := s.Value(or.ID, 0); got != tval.One {
		t.Errorf("or1 = %v, want 1", got)
	}
	if got := s.Value(y.ID, 0); got != tval.Zero {
		t.Errorf("y = %v, want 0", got)
	}
}

func TestSimulatorEarlyDetermination(t *testing.T) {
	// Controlling value determines output without the other input.
	c := buildSmall(t)
	s := NewSimulator(c)
	b := c.LineByName("b")
	or := c.LineByName("or1")
	changed := s.Assign(c.PIIndex(b.ID), 2, tval.One)
	if got := s.Value(or.ID, 2); got != tval.One {
		t.Errorf("or1 = %v, want 1 (controlling input)", got)
	}
	// changed must contain b and or1 but y stays x (NAND with one x
	// input and one 1 input is x).
	foundOr := false
	for _, n := range changed {
		if n == s.Slot(or.ID) {
			foundOr = true
		}
	}
	if !foundOr {
		t.Error("changed set must include or1")
	}
}

func TestSimulatorRollback(t *testing.T) {
	c := buildSmall(t)
	s := NewSimulator(c)
	a, b, cc := c.LineByName("a"), c.LineByName("b"), c.LineByName("c")
	y := c.LineByName("y")

	s.Assign(c.PIIndex(a.ID), 0, tval.One)
	m := s.Snapshot()
	s.Assign(c.PIIndex(b.ID), 0, tval.One)
	s.Assign(c.PIIndex(cc.ID), 0, tval.Zero)
	if got := s.Value(y.ID, 0); got != tval.Zero {
		t.Fatalf("y = %v, want 0", got)
	}
	s.RollbackTo(m)
	if got := s.Value(y.ID, 0); got != tval.X {
		t.Errorf("after rollback y = %v, want x", got)
	}
	if got := s.Value(b.ID, 0); got != tval.X {
		t.Errorf("after rollback b = %v, want x", got)
	}
	if got := s.Value(a.ID, 0); got != tval.One {
		t.Errorf("rollback must keep earlier assignment, a = %v", got)
	}
}

func TestSimulatorNonMonotonePanics(t *testing.T) {
	c := buildSmall(t)
	s := NewSimulator(c)
	a := c.LineByName("a")
	s.Assign(c.PIIndex(a.ID), 0, tval.One)
	defer func() {
		if recover() == nil {
			t.Error("overwriting a specified value must panic")
		}
	}()
	s.Assign(c.PIIndex(a.ID), 0, tval.Zero)
}

func TestSimulatorMatchesFullSimulation(t *testing.T) {
	// Randomized cross-check: incremental assignment order must not
	// matter, and must agree with SimulateTriples.
	c := randomTestCircuit(t, 42, 12, 40)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p1 := make([]tval.V, len(c.PIs))
		p3 := make([]tval.V, len(c.PIs))
		for i := range p1 {
			p1[i] = tval.V(r.Intn(3))
			p3[i] = tval.V(r.Intn(3))
		}
		want := SimulateTriples(c, p1, p3)

		s := NewSimulator(c)
		order := r.Perm(len(c.PIs))
		for _, i := range order {
			if p1[i] != tval.X {
				s.Assign(i, 0, p1[i])
			}
			if p3[i] != tval.X {
				s.Assign(i, 2, p3[i])
			}
			if p1[i] != tval.X && p1[i] == p3[i] {
				s.Assign(i, 1, p1[i])
			}
		}
		for id := range c.Lines {
			if got := s.Triple(id); got != want[id] {
				t.Fatalf("trial %d: line %s: incremental %v != full %v",
					trial, c.Lines[id].Name, got, want[id])
			}
		}
	}
}

func TestSimulateTriplesStableAndTransition(t *testing.T) {
	// Chain: n = NOT(a); y = AND(n, b).
	bld := NewBuilder("chain")
	a := bld.AddInput("a")
	b := bld.AddInput("b")
	n := bld.AddGate(Not, "n", a)
	y := bld.AddGate(And, "y", n, b)
	bld.MarkOutput(y)
	c, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	// a falls 1→0, b stable 1: n rises, y rises.
	tr := SimulateTriples(c, []tval.V{tval.One, tval.One}, []tval.V{tval.Zero, tval.One})
	nl, yl := c.LineByName("n"), c.LineByName("y")
	if got := tr[nl.ID]; got != tval.R {
		t.Errorf("n = %v, want rising 0x1", got)
	}
	if got := tr[yl.ID]; got != tval.R {
		t.Errorf("y = %v, want rising 0x1", got)
	}
	// b stable must be hazard-free 111.
	bl := c.LineByName("b")
	if got := tr[bl.ID]; got != tval.S1 {
		t.Errorf("b = %v, want 111", got)
	}
}

func TestSimulateTriplesHazard(t *testing.T) {
	// y = OR(a, b) with a rising and b falling: a static-1 hazard, so
	// the intermediate must be x even though both patterns give 1.
	bld := NewBuilder("hazard")
	a := bld.AddInput("a")
	b := bld.AddInput("b")
	y := bld.AddGate(Or, "y", a, b)
	bld.MarkOutput(y)
	c, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := SimulateTriples(c, []tval.V{tval.Zero, tval.One}, []tval.V{tval.One, tval.Zero})
	y2 := c.LineByName("y")
	got := tr[y2.ID]
	if got.P1() != tval.One || got.P3() != tval.One {
		t.Fatalf("y pattern values wrong: %v", got)
	}
	if got.Mid() != tval.X {
		t.Errorf("y intermediate = %v, want x (hazard)", got.Mid())
	}
}

// randomTestCircuit builds a random circuit via synth-like logic but
// local to the package (no import cycle): a layered random DAG.
func randomTestCircuit(t *testing.T, seed int64, pis, gates int) *Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand")
	var nets []int
	for i := 0; i < pis; i++ {
		nets = append(nets, b.AddInput(pickName("i", i)))
	}
	types := []GateType{And, Nand, Or, Nor, Not, Xor}
	for g := 0; g < gates; g++ {
		gt := types[r.Intn(len(types))]
		n1 := nets[r.Intn(len(nets))]
		if gt == Not {
			nets = append(nets, b.AddGate(gt, pickName("g", g), n1))
			continue
		}
		n2 := nets[r.Intn(len(nets))]
		for n2 == n1 {
			n2 = nets[r.Intn(len(nets))]
		}
		nets = append(nets, b.AddGate(gt, pickName("g", g), n1, n2))
	}
	// Marking every net as an output is legal (a consumed net gets a
	// PO-tap branch) and guarantees nothing dangles.
	for _, n := range nets {
		b.MarkOutput(n)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pickName(prefix string, i int) string {
	return prefix + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

func TestStatsOnRandomCircuit(t *testing.T) {
	c := randomTestCircuit(t, 99, 8, 30)
	st := c.Stats()
	if st.PIs != 8 || st.Gates != 30 {
		t.Errorf("Stats = %+v", st)
	}
	if st.Depth < 2 {
		t.Errorf("Depth = %d, want ≥ 2", st.Depth)
	}
	if st.Lines != len(c.Lines) {
		t.Errorf("Lines mismatch")
	}
}

// TestTripleSimReusesBuffers checks that one TripleSim simulating test
// after test returns what a fresh simulation of each does, without
// allocating: nothing of an earlier test survives in its buffers.
func TestTripleSimReusesBuffers(t *testing.T) {
	c := randomTestCircuit(t, 42, 12, 40)
	r := rand.New(rand.NewSource(9))
	s := NewTripleSim(c)
	p1 := make([]tval.V, len(c.PIs))
	p3 := make([]tval.V, len(c.PIs))
	for trial := 0; trial < 50; trial++ {
		for i := range p1 {
			p1[i] = tval.V(r.Intn(3))
			p3[i] = tval.V(r.Intn(3))
		}
		want := SimulateTriples(c, p1, p3)
		if a := testing.AllocsPerRun(1, func() { s.Simulate(p1, p3) }); a != 0 {
			t.Fatalf("trial %d: Simulate made %.0f allocations, want 0", trial, a)
		}
		got := s.Simulate(p1, p3)
		for id := range c.Lines {
			if got[id] != want[id] {
				t.Fatalf("trial %d: line %s: reused %v != fresh %v", trial, c.Lines[id].Name, got[id], want[id])
			}
		}
	}
}
