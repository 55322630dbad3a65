package robust

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/tval"
)

// s27Path builds the fault for a named-line path in s27.
func s27Path(t *testing.T, c *circuit.Circuit, dir faults.Direction, names ...string) faults.Fault {
	t.Helper()
	path := make([]int, len(names))
	for i, n := range names {
		l := c.LineByName(n)
		if l == nil {
			t.Fatalf("line %q not found", n)
		}
		path[i] = l.ID
	}
	if err := c.ValidatePath(path); err != nil {
		t.Fatalf("bad test path: %v", err)
	}
	return faults.Fault{Path: path, Dir: dir, Length: len(path)}
}

func TestConditionsPaperExample(t *testing.T) {
	// Paper Section 2.1: for the slow-to-rise fault on path
	// (2,9,10,15) of s27 — in signal names (G1, G12, G12→G13, G13) —
	// A(p) is: off-path 000 on line 7 (G7), off-path xx0 on line 3
	// (G2), and source 0x1 on line 2 (G1).
	c := bench.S27()
	f := s27Path(t, c, faults.SlowToRise, "G1", "G12", "G12->G13", "G13")
	alts := Conditions(c, &f)
	if len(alts) != 1 {
		t.Fatalf("alternatives = %d, want 1", len(alts))
	}
	q := alts[0]
	want := map[string]string{"G1": "0x1", "G7": "000", "G2": "xx0"}
	if len(q.Nets) != len(want) {
		t.Fatalf("cube %s has %d requirements, want %d", q.Format(c), len(q.Nets), len(want))
	}
	for name, tw := range want {
		net := c.LineByName(name).ID
		wantT, _ := tval.ParseTriple(tw)
		if got := q.Get(net); got != wantT {
			t.Errorf("requirement on %s = %v, want %s", name, got, tw)
		}
	}
}

func TestConditionsDirectionFlip(t *testing.T) {
	// The slow-to-fall fault on the same path: source falls (toward
	// non-controlling for the first NOR), so G7 needs only xx0; the
	// second on-path transition rises toward controlling, so G2 needs
	// steady 000.
	c := bench.S27()
	f := s27Path(t, c, faults.SlowToFall, "G1", "G12", "G12->G13", "G13")
	alts := Conditions(c, &f)
	if len(alts) != 1 {
		t.Fatalf("alternatives = %d, want 1", len(alts))
	}
	q := alts[0]
	for name, tw := range map[string]string{"G1": "1x0", "G7": "xx0", "G2": "000"} {
		net := c.LineByName(name).ID
		wantT, _ := tval.ParseTriple(tw)
		if got := q.Get(net); got != wantT {
			t.Errorf("requirement on %s = %v, want %s", name, got, tw)
		}
	}
}

func TestConditionsInverterChain(t *testing.T) {
	b := circuit.NewBuilder("invchain")
	a := b.AddInput("a")
	n1 := b.AddGate(circuit.Not, "n1", a)
	n2 := b.AddGate(circuit.Not, "n2", n1)
	b.MarkOutput(n2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := faults.Fault{
		Path: []int{c.LineByName("a").ID, c.LineByName("n1").ID, c.LineByName("n2").ID},
		Dir:  faults.SlowToRise, Length: 3,
	}
	alts := Conditions(c, &f)
	if len(alts) != 1 || len(alts[0].Nets) != 1 {
		t.Fatalf("inverter chain A(p) = %v, want only the source requirement", alts)
	}
	if got := alts[0].Get(c.LineByName("a").ID); got != tval.R {
		t.Errorf("source requirement = %v, want 0x1", got)
	}
}

func TestConditionsXorAlternatives(t *testing.T) {
	b := circuit.NewBuilder("xor1")
	a := b.AddInput("a")
	s := b.AddInput("s")
	y := b.AddGate(circuit.Xor, "y", a, s)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := faults.Fault{
		Path: []int{c.LineByName("a").ID, c.LineByName("y").ID},
		Dir:  faults.SlowToRise, Length: 2,
	}
	alts := Conditions(c, &f)
	if len(alts) != 2 {
		t.Fatalf("XOR side choices = %d alternatives, want 2", len(alts))
	}
	sNet := c.LineByName("s").ID
	seen := map[tval.Triple]bool{}
	for _, q := range alts {
		seen[q.Get(sNet)] = true
	}
	if !seen[tval.S0] || !seen[tval.S1] {
		t.Errorf("XOR side input must be stable 0 in one alternative and stable 1 in the other; got %v", seen)
	}
}

func TestConditionsDirectConflict(t *testing.T) {
	// Stem a feeds both pins of an AND through branches. For the
	// slow-to-fall fault (transition toward the controlling value),
	// the off-path branch — the same net — must be steady 1 while the
	// source falls: a direct conflict in A(p), so the fault is
	// undetectable. The slow-to-rise fault is fine: the off-path
	// requirement is only xx1, which the rising net satisfies.
	b := circuit.NewBuilder("conflict")
	a := b.AddInput("a")
	y := b.AddGate(circuit.And, "y", a, a)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	al := c.LineByName("a")
	if len(al.Succs) != 2 {
		t.Fatalf("a must have two branches, got %d", len(al.Succs))
	}
	fFall := faults.Fault{
		Path: []int{al.ID, al.Succs[0], c.LineByName("y").ID},
		Dir:  faults.SlowToFall, Length: 3,
	}
	if alts := Conditions(c, &fFall); len(alts) != 0 {
		t.Errorf("self-masking falling path must be undetectable, got %d alternatives", len(alts))
	}
	fRise := fFall
	fRise.Dir = faults.SlowToRise
	if alts := Conditions(c, &fRise); len(alts) != 1 {
		t.Errorf("rising path through AND(a,a) must stay detectable, got %d alternatives", len(alts))
	}
}

func TestCubeMergeAndDelta(t *testing.T) {
	c := bench.S27()
	g1 := c.LineByName("G1").ID
	g2 := c.LineByName("G2").ID
	g7 := c.LineByName("G7").ID

	var q1 Cube
	q1.add(g1, tval.R)
	q1.add(g7, tval.S0)

	var q2 Cube
	q2.add(g7, tval.FinalZero) // subsumed by 000
	q2.add(g2, tval.FinalZero)

	m, ok := q1.Merge(&q2)
	if !ok {
		t.Fatal("merge must succeed")
	}
	if len(m.Nets) != 3 {
		t.Fatalf("merged cube has %d nets, want 3", len(m.Nets))
	}
	if m.Get(g7) != tval.S0 {
		t.Errorf("G7 = %v, want 000", m.Get(g7))
	}
	// nΔ of q2 against q1: only G2's xx0 adds one new position.
	if got := q1.NewlySpecified(&q2); got != 1 {
		t.Errorf("nΔ = %d, want 1", got)
	}
	// Conflicting merge.
	var q3 Cube
	q3.add(g1, tval.F)
	if _, ok := q1.Merge(&q3); ok {
		t.Error("merge of opposite transitions must conflict")
	}
}

func TestCubeGetAndClone(t *testing.T) {
	var q Cube
	q.add(5, tval.S1)
	q.add(2, tval.R)
	if q.Nets[0] != 2 || q.Nets[1] != 5 {
		t.Fatal("cube must stay sorted")
	}
	if q.Get(3) != tval.TX {
		t.Error("unconstrained net must read xxx")
	}
	cl := q.Clone()
	cl.add(3, tval.S0)
	if len(q.Nets) != 2 {
		t.Error("clone must not alias the original")
	}
}

func TestImplyForwardBackward(t *testing.T) {
	// y = AND(a, b): requiring y=111 implies a=111 and b=111.
	b := circuit.NewBuilder("imp1")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	y := b.AddGate(circuit.And, "y", a, bb)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im := NewImplier(c)
	var q Cube
	q.add(c.LineByName("y").ID, tval.S1)
	vals, ok := im.Imply(&q)
	if !ok {
		t.Fatal("consistent cube rejected")
	}
	if vals[c.LineByName("a").ID] != tval.S1 || vals[c.LineByName("b").ID] != tval.S1 {
		t.Errorf("AND output 111 must force both inputs to 111: a=%v b=%v",
			vals[c.LineByName("a").ID], vals[c.LineByName("b").ID])
	}
}

func TestImplyLastUnknownInput(t *testing.T) {
	// y = OR(a, b): y=000 forces both 0; y=111 with a=000 forces b=111.
	b := circuit.NewBuilder("imp2")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	y := b.AddGate(circuit.Or, "y", a, bb)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im := NewImplier(c)
	var q Cube
	q.add(c.LineByName("y").ID, tval.S1)
	q.add(c.LineByName("a").ID, tval.S0)
	vals, ok := im.Imply(&q)
	if !ok {
		t.Fatal("consistent cube rejected")
	}
	if vals[c.LineByName("b").ID] != tval.S1 {
		t.Errorf("b = %v, want 111", vals[c.LineByName("b").ID])
	}
}

func TestImplyConflict(t *testing.T) {
	// y = AND(a, b) with y=111 and a=xx0 is contradictory.
	b := circuit.NewBuilder("imp3")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	y := b.AddGate(circuit.And, "y", a, bb)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im := NewImplier(c)
	var q Cube
	q.add(c.LineByName("y").ID, tval.S1)
	q.add(c.LineByName("a").ID, tval.FinalZero)
	if _, ok := im.Imply(&q); ok {
		t.Error("contradictory cube accepted")
	}
}

func TestImplyPIIntermediateRule(t *testing.T) {
	// For a primary input, p1 = p3 = v forces the intermediate (a PI
	// changes at most once), and a required intermediate forces both
	// pattern values.
	b := circuit.NewBuilder("imp4")
	a := b.AddInput("a")
	n := b.AddGate(circuit.Buf, "n", a)
	b.MarkOutput(n)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im := NewImplier(c)
	var q Cube
	q.add(c.LineByName("a").ID, tval.NewTriple(tval.One, tval.X, tval.One))
	vals, ok := im.Imply(&q)
	if !ok {
		t.Fatal("consistent cube rejected")
	}
	if vals[c.LineByName("a").ID] != tval.S1 {
		t.Errorf("stable PI must imply hazard-free value, got %v", vals[c.LineByName("a").ID])
	}
	// And the buffered copy follows.
	if vals[c.LineByName("n").ID] != tval.S1 {
		t.Errorf("n = %v, want 111", vals[c.LineByName("n").ID])
	}

	// A PI cannot both transition and be required stable at mid.
	var q2 Cube
	q2.add(c.LineByName("a").ID, tval.NewTriple(tval.One, tval.Zero, tval.Zero))
	// 1,0,0 is fine (falling transition settles at 0 — but mid 0 with
	// p1 1 means the input must have switched already; for a PI the
	// triple (1,0,0) is not realizable since mid would be x during the
	// switch; our rule forces p1 = mid and flags the conflict.
	if _, ok := im.Imply(&q2); ok {
		t.Error("PI triple 100 must be rejected (mid specified requires stability)")
	}
}

func TestScreenS27(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, eliminated := Screen(c, res.Faults)
	if len(kept)+eliminated != len(res.Faults) {
		t.Fatalf("screen loses faults: %d + %d != %d", len(kept), eliminated, len(res.Faults))
	}
	if len(kept) == 0 {
		t.Fatal("no detectable faults in s27")
	}
	for i := range kept {
		if len(kept[i].Alts) == 0 {
			t.Fatal("kept fault without alternatives")
		}
	}
	t.Logf("s27: %d faults enumerated, %d undetectable eliminated, %d kept",
		len(res.Faults), eliminated, len(kept))
}

func TestScreenedFaultsOrderPreserved(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := Screen(c, res.Faults)
	for i := 1; i < len(kept); i++ {
		if kept[i].Fault.Length > kept[i-1].Fault.Length {
			t.Fatal("screen must preserve length-descending order")
		}
	}
}

func TestCoveredBy(t *testing.T) {
	c := bench.S27()
	f := s27Path(t, c, faults.SlowToRise, "G1", "G12", "G12->G13", "G13")
	alts := Conditions(c, &f)
	q := alts[0]
	sim := make([]tval.Triple, len(c.Lines))
	for i := range sim {
		sim[i] = tval.TX
	}
	if q.CoveredBy(sim) {
		t.Error("all-x simulation cannot cover requirements")
	}
	sim[c.LineByName("G1").ID] = tval.R
	sim[c.LineByName("G7").ID] = tval.S0
	sim[c.LineByName("G2").ID] = tval.F // final value 0 covers xx0
	if !q.CoveredBy(sim) {
		t.Error("satisfying simulation not recognized")
	}
	sim[c.LineByName("G7").ID] = tval.NewTriple(tval.Zero, tval.X, tval.Zero)
	if q.CoveredBy(sim) {
		t.Error("glitchy off-path value must not cover a steady requirement")
	}
}
