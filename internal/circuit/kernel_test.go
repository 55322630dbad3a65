package circuit

import (
	"testing"

	"repro/internal/tval"
)

// refEval is the three-valued gate function written from its
// definition: a controlling input value (0 for AND and NAND, 1 for OR
// and NOR) decides the output, otherwise any x input gives x,
// otherwise the output is the boolean function of the inputs.
func refEval(t GateType, in []tval.V) tval.V {
	has := map[tval.V]bool{}
	ones := 0
	for _, v := range in {
		has[v] = true
		if v == tval.One {
			ones++
		}
	}
	var out tval.V
	switch t {
	case And, Nand:
		out = tval.One
		if has[tval.Zero] {
			out = tval.Zero
		} else if has[tval.X] {
			out = tval.X
		}
	case Or, Nor:
		out = tval.Zero
		if has[tval.One] {
			out = tval.One
		} else if has[tval.X] {
			out = tval.X
		}
	default: // XOR, XNOR, and BUF and NOT of their one input
		out = tval.V(ones % 2)
		if has[tval.X] {
			out = tval.X
		}
	}
	if t == Nand || t == Nor || t == Xnor || t == Not {
		out = out.Not()
	}
	return out
}

// maxFanin is the fanin a gate of type t may have, capped at n: NOT and
// BUF read one input.
func maxFanin(t GateType, n int) int {
	if t == Not || t == Buf {
		return 1
	}
	return n
}

// forEachVector calls fn with every vector of n values drawn from
// base, reusing one slice.
func forEachVector[T any](base []T, n int, fn func([]T)) {
	vec := make([]T, n)
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			fn(vec)
			return
		}
		for _, v := range base {
			vec[k] = v
			walk(k + 1)
		}
	}
	walk(0)
}

var allValues = []tval.V{tval.Zero, tval.One, tval.X}

// allTriples is every triple over {0, 1, x}.
var allTriples = func() (ts []tval.Triple) {
	forEachVector(allValues, 3, func(v []tval.V) { ts = append(ts, tval.NewTriple(v[0], v[1], v[2])) })
	return
}()

func pins(n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = k
	}
	return p
}

// lessDefined reports a ⊑ b in the information order (x below both 0
// and 1).
func lessDefined(a, b tval.V) bool { return a == tval.X || a == b }

// TestGateEvalExhaustive checks Eval against refEval on every input
// vector over {0, 1, x} of every gate type with fanin 1 to 4, and that
// Eval is monotone: turning one specified input into x turns the
// output into x or leaves it.
func TestGateEvalExhaustive(t *testing.T) {
	for typ := range numGateTypes {
		for n := 1; n <= maxFanin(typ, 4); n++ {
			in := pins(n)
			forEachVector(allValues, n, func(vals []tval.V) {
				got := typ.Eval(in, vals)
				if want := refEval(typ, vals); got != want {
					t.Fatalf("%v%v = %v, want %v", typ, vals, got, want)
				}
				for k, v := range vals {
					if v == tval.X {
						continue
					}
					vals[k] = tval.X
					if weaker := typ.Eval(in, vals); !lessDefined(weaker, got) {
						t.Fatalf("%v not monotone: %v gives %v, input %d %v gives %v", typ, vals, weaker, k, v, got)
					}
					vals[k] = v
				}
			})
		}
	}
}

// TestTripleSimLanes checks the packed kernel of TripleSim on every
// vector of triples over {0, 1, x}³ of every gate type with fanin 1 to
// 3: each position of its result is Eval on that plane.
func TestTripleSimLanes(t *testing.T) {
	for typ := range numGateTypes {
		for n := 1; n <= maxFanin(typ, 3); n++ {
			in, plane := pins(n), make([]tval.V, n)
			forEachVector(allTriples, n, func(triples []tval.Triple) {
				got := laneKernel(typ, in, triples)
				var want [NumPlanes]tval.V
				for q := range want {
					for k, tr := range triples {
						plane[k] = tr.At(q)
					}
					want[q] = typ.Eval(in, plane)
				}
				if w := tval.NewTriple(want[0], want[1], want[2]); got != w {
					t.Fatalf("%v%v = %v (%#x), want %v", typ, triples, got, uint8(got), w)
				}
			})
		}
	}
}

// FuzzGateKernels checks both kernels on one gate of a random type
// with up to 9 inputs: Eval against refEval on each plane, and the
// packed kernel against Eval on every plane.
func FuzzGateKernels(f *testing.F) {
	f.Add(uint8(And), uint8(3), []byte{0, 1, 2, 1, 1, 1, 2, 0, 1})
	f.Add(uint8(Xnor), uint8(8), []byte{1, 0, 1, 1, 2, 0, 0, 1, 1, 2, 2, 2})
	f.Add(uint8(Not), uint8(0), []byte{2, 0, 1})
	f.Fuzz(func(t *testing.T, typ, fanin uint8, data []byte) {
		gt := GateType(typ % uint8(numGateTypes))
		n := 1 + int(fanin)%maxFanin(gt, 9)
		in := pins(n)
		triples := make([]tval.Triple, n)
		var planes [NumPlanes][]tval.V
		for q := range planes {
			planes[q] = make([]tval.V, n)
		}
		for k := range triples {
			var v [NumPlanes]tval.V
			for q := range v {
				if i := k*NumPlanes + q; i < len(data) {
					v[q] = tval.V(data[i] % 3)
				}
				planes[q][k] = v[q]
			}
			triples[k] = tval.NewTriple(v[0], v[1], v[2])
		}
		var want [NumPlanes]tval.V
		for q, vals := range planes {
			want[q] = gt.Eval(in, vals)
			if ref := refEval(gt, vals); want[q] != ref {
				t.Fatalf("%v%v = %v, want %v", gt, vals, want[q], ref)
			}
		}
		if got, w := laneKernel(gt, in, triples), tval.NewTriple(want[0], want[1], want[2]); got != w {
			t.Fatalf("packed %v%v = %v, want %v", gt, triples, got, w)
		}
	})
}
