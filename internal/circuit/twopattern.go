package circuit

import "repro/internal/tval"

// TwoPattern is a two-pattern test: the values of the primary inputs
// (in PIs order) under the first and second pattern.
type TwoPattern struct {
	P1, P3 []tval.V
}

// Clone returns a deep copy.
func (t TwoPattern) Clone() TwoPattern {
	return TwoPattern{
		P1: append([]tval.V(nil), t.P1...),
		P3: append([]tval.V(nil), t.P3...),
	}
}

// FullySpecified reports whether every input value of both patterns is
// 0 or 1.
func (t TwoPattern) FullySpecified() bool {
	for i := range t.P1 {
		if t.P1[i] == tval.X || t.P3[i] == tval.X {
			return false
		}
	}
	return true
}

// Simulate runs the three-plane simulation of the test on c and
// returns the value triple of every line.
func (t TwoPattern) Simulate(c *Circuit) []tval.Triple {
	return SimulateTriples(c, t.P1, t.P3)
}

// String renders the test as "<pattern1> -> <pattern2>".
func (t TwoPattern) String() string {
	b := make([]byte, 0, len(t.P1)+len(" -> ")+len(t.P3))
	b = appendValues(b, t.P1)
	b = append(b, " -> "...)
	return string(appendValues(b, t.P3))
}

// appendValues appends the characters of vs (tval.V.String) to b.
func appendValues(b []byte, vs []tval.V) []byte {
	for _, v := range vs {
		b = append(b, "01x"[min(v, tval.X)])
	}
	return b
}
