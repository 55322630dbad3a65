// Package tval implements the three-valued logic and the value triples
// used for two-pattern (path delay fault) tests.
//
// A two-pattern test assigns every signal line a triple α1α2α3, where α1
// is the value under the first pattern, α3 the value under the second
// pattern, and α2 the intermediate value the line may assume while the
// circuit settles. A stable value has α1=α2=α3; a rising transition is
// 0,x,1; a falling transition is 1,x,0 (Pomeranz & Reddy, DATE 2002,
// Section 2.1).
//
// Simulation evaluates the three positions as three independent
// three-valued (0/1/x) planes. Because the intermediate plane carries x
// on every changing input, a line whose intermediate simulates to a
// definite value is guaranteed hazard-free, which is exactly the
// conservative condition robust path delay fault tests need.
package tval

import (
	"fmt"
	"math/bits"
)

// V is a three-valued logic value: 0, 1 or x (unknown/unspecified).
type V uint8

// The three logic values.
const (
	Zero V = 0
	One  V = 1
	X    V = 2
)

// Specified reports whether v is a definite 0 or 1.
func (v V) Specified() bool { return v < X }

// Not returns the three-valued complement of v. Not(X) is X.
func (v V) Not() V {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	default:
		return X
	}
}

func (v V) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "x"
	}
}

// Xor returns the three-valued XOR of a and b.
func Xor(a, b V) V {
	if a == X || b == X {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}

// Triple is a packed value triple α1α2α3. Each position holds a V.
// The zero value of Triple is the fully specified stable-0 triple; use
// TX for the fully unspecified triple.
type Triple uint8

// NewTriple packs three values into a Triple.
func NewTriple(a1, a2, a3 V) Triple {
	return Triple(uint8(a1) | uint8(a2)<<2 | uint8(a3)<<4)
}

// Common triples.
var (
	TX = NewTriple(X, X, X)          // fully unspecified
	S0 = NewTriple(Zero, Zero, Zero) // stable, hazard-free 0
	S1 = NewTriple(One, One, One)    // stable, hazard-free 1
	R  = NewTriple(Zero, X, One)     // rising transition 0→1
	F  = NewTriple(One, X, Zero)     // falling transition 1→0
	// FinalZero constrains only the second pattern to 0 (paper: "xx0").
	FinalZero = NewTriple(X, X, Zero)
	// FinalOne constrains only the second pattern to 1 (paper: "xx1").
	FinalOne = NewTriple(X, X, One)
)

// P1 returns the first-pattern value α1.
func (t Triple) P1() V { return V(t & 3) }

// Mid returns the intermediate value α2.
func (t Triple) Mid() V { return V(t >> 2 & 3) }

// P3 returns the second-pattern value α3.
func (t Triple) P3() V { return V(t >> 4 & 3) }

// At returns position i (0 = first pattern, 1 = intermediate,
// 2 = second pattern).
func (t Triple) At(i int) V { return V(t >> (2 * uint(i)) & 3) }

// With returns t with position i replaced by v.
func (t Triple) With(i int, v V) Triple {
	sh := 2 * uint(i)
	return t&^(3<<sh) | Triple(v)<<sh
}

// Not returns the positionwise complement of t.
func (t Triple) Not() Triple {
	return NewTriple(t.P1().Not(), t.Mid().Not(), t.P3().Not())
}

// Covers reports whether the simulated value u satisfies the
// requirement t: every specified position of t must be matched exactly
// by u. An x in u does not satisfy a specified requirement, because an
// x intermediate value means the line may glitch.
func (t Triple) Covers(u Triple) bool {
	for i := 0; i < 3; i++ {
		a := t.At(i)
		if a != X && u.At(i) != a {
			return false
		}
	}
	return true
}

// Merge intersects two requirements. ok is false when they conflict.
// Positions specified in either operand are specified in the result.
func (t Triple) Merge(u Triple) (merged Triple, ok bool) {
	merged = t
	for i := 0; i < 3; i++ {
		a, b := t.At(i), u.At(i)
		switch {
		case a == X:
			merged = merged.With(i, b)
		case b == X || a == b:
			// keep a
		default:
			return merged, false
		}
	}
	return merged, true
}

// NumSpecified returns how many of the three positions are specified.
func (t Triple) NumSpecified() int { return bits.OnesCount8(t.SpecifiedMask()) }

// specMask[t] has bit i set when position i of the packed triple t is
// specified; precomputed because NewlySpecified sits on the ATPG's
// value-based ordering hot path.
var specMask = func() (m [64]uint8) {
	for t := 0; t < 64; t++ {
		for i := 0; i < 3; i++ {
			if V(t>>(2*uint(i))&3) != X {
				m[t] |= 1 << uint(i)
			}
		}
	}
	return
}()

// SpecifiedMask returns a 3-bit mask of the specified positions.
func (t Triple) SpecifiedMask() uint8 { return specMask[t&0x3f] }

// NewlySpecified returns the number of positions specified in req but
// not in base. It is the per-line contribution to nΔ(p) used by the
// value-based secondary target ordering.
func NewlySpecified(base, req Triple) int {
	return bits.OnesCount8(uint8(specMask[req&0x3f] &^ specMask[base&0x3f]))
}

func (t Triple) String() string {
	return fmt.Sprintf("%s%s%s", t.P1(), t.Mid(), t.P3())
}

// ParseTriple parses a three-character string such as "0x1" into a
// Triple.
//
//lint:ignore testonly tests in several packages spell their triples with it
func ParseTriple(s string) (Triple, error) {
	if len(s) != 3 {
		return TX, fmt.Errorf("tval: triple %q must have exactly 3 characters", s)
	}
	var vs [3]V
	for i := 0; i < 3; i++ {
		switch s[i] {
		case '0':
			vs[i] = Zero
		case '1':
			vs[i] = One
		case 'x', 'X':
			vs[i] = X
		default:
			return TX, fmt.Errorf("tval: invalid character %q in triple %q", s[i], s)
		}
	}
	return NewTriple(vs[0], vs[1], vs[2]), nil
}
