package bitsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/synth"
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

// loadCircuits are circuits whose input counts are not multiples of 8,
// and one whose primary inputs are not lines 0..m-1: an input is
// declared after a gate.
func loadCircuits(t testing.TB) []*circuit.Circuit {
	s1423, err := synth.Benchmark("s1423")
	if err != nil {
		t.Fatal(err)
	}
	// Ten inputs, four of them before a gate: the first block of 8
	// and the two left over both span the gate's line.
	b := circuit.NewBuilder("late-inputs")
	in := make([]int, 10)
	for i := range in[:4] {
		in[i] = b.AddInput(fmt.Sprintf("a%d", i))
	}
	g := b.AddGate(circuit.Nand, "g", in[0], in[1], in[2], in[3])
	for i := 4; i < len(in); i++ {
		in[i] = b.AddInput(fmt.Sprintf("a%d", i))
	}
	b.MarkOutput(b.AddGate(circuit.Xor, "x", g, in[4], in[5], in[8]))
	b.MarkOutput(b.AddGate(circuit.Nor, "n", in[6], in[7], in[9]))
	b.MarkOutput(b.AddGate(circuit.And, "y", g, in[9]))
	mixed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if mixed.PIs[len(mixed.PIs)-1] == len(mixed.PIs)-1 {
		t.Fatalf("%s: inputs are lines %v, want an input after a gate", mixed.Name, mixed.PIs)
	}
	return []*circuit.Circuit{bench.C17(), bench.S27(), s1423, mixed}
}

// randomLoadTests returns n tests on c whose values are 0 or 1, or,
// with x set, 0, 1 or x.
func randomLoadTests(c *circuit.Circuit, r *rand.Rand, n int, x bool) []circuit.TwoPattern {
	vals := 2
	if x {
		vals = 3
	}
	tests := make([]circuit.TwoPattern, n)
	for i := range tests {
		tp := circuit.TwoPattern{P1: make([]tval.V, len(c.PIs)), P3: make([]tval.V, len(c.PIs))}
		for k := range tp.P1 {
			tp.P1[k], tp.P3[k] = tval.V(r.Intn(vals)), tval.V(r.Intn(vals))
		}
		tests[i] = tp
	}
	return tests
}

// checkLoad loads tests into b and compares every line and plane with
// the scalar simulation of want[i], the test tests[i] reads as.
func checkLoad(t *testing.T, b *Batch, tests, want []circuit.TwoPattern) {
	t.Helper()
	if err := b.load(tests, 0); err != nil {
		t.Fatal(err)
	}
	c := b.c
	for ti, tp := range want {
		vals := tp.Simulate(c)
		for id := range c.Lines {
			for p := 0; p < circuit.NumPlanes; p++ {
				if got := b.Value(id, p, ti); got != vals[id].At(p) {
					t.Fatalf("%s, %d tests: test %d (%v) line %s plane %d: batch %v, scalar %v",
						c.Name, len(tests), ti, tp, c.Lines[id].Name, p, got, vals[id].At(p))
				}
			}
		}
	}
}

// The block loader gathers every batch size, input count and input
// numbering as the scalar simulation does, x included. One batch is
// reused across sizes, so a load also shows it clears the last one.
func TestLoadMatchesScalarSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, c := range loadCircuits(t) {
		b := newBatch(c)
		for _, n := range []int{1, 7, 8, 9, 63, 64} {
			for _, x := range []bool{false, true} {
				tests := randomLoadTests(c, r, n, x)
				checkLoad(t, b, tests, tests)
			}
		}
	}
}

// A byte that is not a valid tval.V loads as x on every plane: the
// batch matches the scalar simulation of the test with x in its place.
// 128 and 129 differ from Zero and One only in their top bit.
func TestLoadReadsInvalidValuesAsX(t *testing.T) {
	invalid := []tval.V{3, 255, 128, 129}
	r := rand.New(rand.NewSource(41))
	for _, c := range loadCircuits(t) {
		b := newBatch(c)
		for _, n := range []int{1, 9, 64} {
			tests := randomLoadTests(c, r, n, true)
			want := make([]circuit.TwoPattern, n)
			for i, tp := range tests {
				want[i] = tp.Clone()
				for k := range tp.P1 {
					if r.Intn(2) == 0 {
						tp.P1[k], want[i].P1[k] = invalid[r.Intn(len(invalid))], tval.X
					}
					if r.Intn(2) == 0 {
						tp.P3[k], want[i].P3[k] = invalid[r.Intn(len(invalid))], tval.X
					}
				}
			}
			checkLoad(t, b, tests, want)
		}
	}
}

var loaded *Batch

// BenchmarkBatchLoad times load alone: one 64-test batch of the s1423
// stand-in, gathered and simulated into a reused slab.
func BenchmarkBatchLoad(bm *testing.B) {
	c, err := synth.Benchmark("s1423")
	if err != nil {
		bm.Fatal(err)
	}
	tests := randomLoadTests(c, rand.New(rand.NewSource(1)), WordSize, false)
	b := newBatch(c)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if err := b.load(tests, 0); err != nil {
			bm.Fatal(err)
		}
	}
	loaded = b
}
