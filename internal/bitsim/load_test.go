package bitsim

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/tval"
)

// A batch that load rejects keeps the simulation it held.
func TestRejectedLoadKeepsBatch(t *testing.T) {
	c := bench.S27()
	test := func(v tval.V) circuit.TwoPattern {
		tp := circuit.TwoPattern{P1: make([]tval.V, len(c.PIs)), P3: make([]tval.V, len(c.PIs))}
		for i := range tp.P1 {
			tp.P1[i], tp.P3[i] = v, v
		}
		return tp
	}
	b, err := Simulate(c, []circuit.TwoPattern{test(tval.One), test(tval.Zero)})
	if err != nil {
		t.Fatal(err)
	}
	want, n := slices.Clone(b.w), b.n
	short := test(tval.One)
	short.P3 = short.P3[1:]
	if err := b.load([]circuit.TwoPattern{test(tval.One), short}, 0); err == nil {
		t.Fatal("load accepted a test of the wrong width")
	}
	if err := b.load(nil, 0); err == nil {
		t.Fatal("load accepted an empty batch")
	}
	if !slices.Equal(b.w, want) || b.n != n {
		t.Error("a rejected load changed the batch")
	}
}
