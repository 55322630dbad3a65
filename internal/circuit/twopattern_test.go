package circuit

import (
	"testing"

	"repro/internal/tval"
)

func TestTwoPatternClone(t *testing.T) {
	a := TwoPattern{
		P1: []tval.V{tval.Zero, tval.One},
		P3: []tval.V{tval.One, tval.X},
	}
	b := a.Clone()
	b.P1[0] = tval.One
	b.P3[1] = tval.Zero
	if a.P1[0] != tval.Zero || a.P3[1] != tval.X {
		t.Error("Clone aliases the original")
	}
}

func TestTwoPatternFullySpecified(t *testing.T) {
	full := TwoPattern{P1: []tval.V{tval.Zero}, P3: []tval.V{tval.One}}
	if !full.FullySpecified() {
		t.Error("fully specified test rejected")
	}
	partial := TwoPattern{P1: []tval.V{tval.X}, P3: []tval.V{tval.One}}
	if partial.FullySpecified() {
		t.Error("partial test accepted")
	}
}

func TestTwoPatternSimulate(t *testing.T) {
	c := buildSmall(t) // y = NAND(a, OR(b,c))
	tp := TwoPattern{
		P1: []tval.V{tval.One, tval.Zero, tval.Zero},
		P3: []tval.V{tval.One, tval.One, tval.Zero},
	}
	sim := tp.Simulate(c)
	y := c.LineByName("y")
	// a stable 1, OR rises → y falls.
	if sim[y.ID] != tval.F {
		t.Errorf("y = %v, want 1x0", sim[y.ID])
	}
}

func TestAccessors(t *testing.T) {
	c := buildSmall(t)
	if c.NumLines() != len(c.Lines) {
		t.Error("size accessors wrong")
	}
	for i, pi := range c.PIs {
		if c.PIIndex(pi) != i {
			t.Errorf("PIIndex(%d) = %d, want %d", pi, c.PIIndex(pi), i)
		}
	}
	if c.PIIndex(c.LineByName("y").ID) != -1 {
		t.Error("PIIndex of a non-PI must be -1")
	}
}

func TestGateTypeStringsAndInverting(t *testing.T) {
	for gt, want := range map[GateType]string{
		And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR",
		Not: "NOT", Buf: "BUF", Xor: "XOR", Xnor: "XNOR",
	} {
		if gt.String() != want {
			t.Errorf("%v.String() = %q", gt, gt.String())
		}
	}
	if GateType(200).String() == "" {
		t.Error("unknown gate type must still format")
	}
	for _, gt := range []GateType{Nand, Nor, Not, Xnor} {
		if !gt.Inverting() {
			t.Errorf("%v must be inverting", gt)
		}
	}
	for _, gt := range []GateType{And, Or, Buf, Xor} {
		if gt.Inverting() {
			t.Errorf("%v must not be inverting", gt)
		}
	}
	for k, want := range map[LineKind]string{LinePI: "PI", LineStem: "stem", LineBranch: "branch"} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	if LineKind(9).String() == "" {
		t.Error("unknown line kind must still format")
	}
}
