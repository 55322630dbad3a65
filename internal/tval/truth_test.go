package tval_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/tval"
)

// The three-valued AND and OR of two values are computed by the gate
// kernel, circuit.GateType.Eval; these tables pin it to Kleene logic
// over {0, 1, x}, and the inverting types to the complement.

func TestAndTruthTable(t *testing.T) {
	cases := []struct{ a, b, want tval.V }{
		{tval.Zero, tval.Zero, tval.Zero}, {tval.Zero, tval.One, tval.Zero}, {tval.Zero, tval.X, tval.Zero},
		{tval.One, tval.Zero, tval.Zero}, {tval.One, tval.One, tval.One}, {tval.One, tval.X, tval.X},
		{tval.X, tval.Zero, tval.Zero}, {tval.X, tval.One, tval.X}, {tval.X, tval.X, tval.X},
	}
	for _, c := range cases {
		vals := []tval.V{c.a, c.b}
		if got := circuit.And.Eval([]int{0, 1}, vals); got != c.want {
			t.Errorf("AND(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := circuit.Nand.Eval([]int{0, 1}, vals); got != c.want.Not() {
			t.Errorf("NAND(%v,%v) = %v, want %v", c.a, c.b, got, c.want.Not())
		}
	}
}

func TestOrTruthTable(t *testing.T) {
	cases := []struct{ a, b, want tval.V }{
		{tval.Zero, tval.Zero, tval.Zero}, {tval.Zero, tval.One, tval.One}, {tval.Zero, tval.X, tval.X},
		{tval.One, tval.Zero, tval.One}, {tval.One, tval.One, tval.One}, {tval.One, tval.X, tval.One},
		{tval.X, tval.Zero, tval.X}, {tval.X, tval.One, tval.One}, {tval.X, tval.X, tval.X},
	}
	for _, c := range cases {
		vals := []tval.V{c.a, c.b}
		if got := circuit.Or.Eval([]int{0, 1}, vals); got != c.want {
			t.Errorf("OR(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := circuit.Nor.Eval([]int{0, 1}, vals); got != c.want.Not() {
			t.Errorf("NOR(%v,%v) = %v, want %v", c.a, c.b, got, c.want.Not())
		}
	}
}
