package tval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVNot(t *testing.T) {
	cases := []struct{ in, want V }{
		{Zero, One},
		{One, Zero},
		{X, X},
	}
	for _, c := range cases {
		if got := c.in.Not(); got != c.want {
			t.Errorf("Not(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVSpecified(t *testing.T) {
	if !Zero.Specified() || !One.Specified() {
		t.Error("0 and 1 must be specified")
	}
	if X.Specified() {
		t.Error("x must not be specified")
	}
}

func TestXorTruthTable(t *testing.T) {
	cases := []struct{ a, b, want V }{
		{Zero, Zero, Zero}, {Zero, One, One},
		{One, Zero, One}, {One, One, Zero},
		{X, Zero, X}, {Zero, X, X}, {X, X, X}, {One, X, X},
	}
	for _, c := range cases {
		if got := Xor(c.a, c.b); got != c.want {
			t.Errorf("Xor(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func randV(r *rand.Rand) V { return V(r.Intn(3)) }

func TestThreeValuedProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := randV(r), randV(r), randV(r)
		if Xor(a, b) != Xor(b, a) {
			t.Fatalf("Xor not commutative for %v,%v", a, b)
		}
		if Xor(Xor(a, b), c) != Xor(a, Xor(b, c)) {
			t.Fatalf("Xor not associative for %v,%v,%v", a, b, c)
		}
		if Xor(a, b).Not() != Xor(a.Not(), b) {
			t.Fatalf("Xor does not commute with Not for %v,%v", a, b)
		}
	}
}

// lessDefined reports a ⊑ b in the information order (x below both 0
// and 1).
func lessDefined(a, b V) bool { return a == X || a == b }

func TestMonotonicity(t *testing.T) {
	vs := []V{Zero, One, X}
	for _, a1 := range vs {
		for _, a2 := range vs {
			for _, b1 := range vs {
				for _, b2 := range vs {
					if !lessDefined(a1, a2) || !lessDefined(b1, b2) {
						continue
					}
					if !lessDefined(Xor(a1, b1), Xor(a2, b2)) {
						t.Errorf("Xor not monotone: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
					}
				}
			}
		}
	}
}

func TestTriplePackUnpack(t *testing.T) {
	vs := []V{Zero, One, X}
	for _, a := range vs {
		for _, b := range vs {
			for _, c := range vs {
				tr := NewTriple(a, b, c)
				if tr.P1() != a || tr.Mid() != b || tr.P3() != c {
					t.Errorf("pack/unpack mismatch for %v%v%v: got %v", a, b, c, tr)
				}
				if tr.At(0) != a || tr.At(1) != b || tr.At(2) != c {
					t.Errorf("At mismatch for %v", tr)
				}
			}
		}
	}
}

func TestTripleConstants(t *testing.T) {
	if S0.String() != "000" || S1.String() != "111" {
		t.Errorf("stable triples wrong: %v %v", S0, S1)
	}
	if R.String() != "0x1" || F.String() != "1x0" {
		t.Errorf("transition triples wrong: %v %v", R, F)
	}
	if TX.String() != "xxx" {
		t.Errorf("TX wrong: %v", TX)
	}
	if FinalZero.String() != "xx0" || FinalOne.String() != "xx1" {
		t.Errorf("final-only triples wrong: %v %v", FinalZero, FinalOne)
	}
}

func TestTripleWith(t *testing.T) {
	tr := TX.With(0, Zero).With(2, One)
	if tr.String() != "0x1" {
		t.Errorf("With chain = %v, want 0x1", tr)
	}
	if tr != R {
		t.Errorf("constructed rising %v != R", tr)
	}
}

func TestTripleNot(t *testing.T) {
	if R.Not() != F || F.Not() != R {
		t.Error("R and F must be complements")
	}
	if S0.Not() != S1 {
		t.Error("S0.Not() must be S1")
	}
	if TX.Not() != TX {
		t.Error("TX.Not() must be TX")
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		req, sim string
		want     bool
	}{
		{"000", "000", true},
		{"000", "0x0", false}, // x intermediate may glitch
		{"xx0", "1x0", true},
		{"xx0", "1xx", false},
		{"0x1", "001", true}, // requirement's x positions unconstrained
		{"xxx", "xxx", true},
	}
	for _, c := range cases {
		req, _ := ParseTriple(c.req)
		sim, _ := ParseTriple(c.sim)
		if got := req.Covers(sim); got != c.want {
			t.Errorf("(%s).Covers(%s) = %v, want %v", c.req, c.sim, got, c.want)
		}
	}
}

func TestMerge(t *testing.T) {
	a, _ := ParseTriple("0xx")
	b, _ := ParseTriple("xx1")
	m, ok := a.Merge(b)
	if !ok || m != R {
		t.Errorf("Merge(0xx, xx1) = %v,%v want 0x1,true", m, ok)
	}
	c, _ := ParseTriple("1xx")
	if _, ok := a.Merge(c); ok {
		t.Error("Merge(0xx, 1xx) must conflict")
	}
}

func TestMergeProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTriple(r))
			vals[1] = reflect.ValueOf(randomTriple(r))
		},
	}
	// Merge is commutative in both result and success.
	prop := func(a, b Triple) bool {
		m1, ok1 := a.Merge(b)
		m2, ok2 := b.Merge(a)
		if ok1 != ok2 {
			return false
		}
		if ok1 && m1 != m2 {
			return false
		}
		// A successful merge covers iff both operands cover.
		if ok1 {
			for _, sim := range allSpecifiedTriples() {
				if m1.Covers(sim) != (a.Covers(sim) && b.Covers(sim)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestNewlySpecified(t *testing.T) {
	base, _ := ParseTriple("0xx")
	req, _ := ParseTriple("0x1")
	if got := NewlySpecified(base, req); got != 1 {
		t.Errorf("NewlySpecified(0xx,0x1) = %d, want 1", got)
	}
	if got := NewlySpecified(TX, S0); got != 3 {
		t.Errorf("NewlySpecified(xxx,000) = %d, want 3", got)
	}
	if got := NewlySpecified(S0, S0); got != 0 {
		t.Errorf("NewlySpecified(000,000) = %d, want 0", got)
	}
}

func TestParseTripleErrors(t *testing.T) {
	for _, bad := range []string{"", "0", "01", "0123", "0a1"} {
		if _, err := ParseTriple(bad); err == nil {
			t.Errorf("ParseTriple(%q) should fail", bad)
		}
	}
	tr, err := ParseTriple("0X1")
	if err != nil || tr != R {
		t.Errorf("ParseTriple(0X1) = %v,%v want R,nil", tr, err)
	}
}

func TestNumSpecified(t *testing.T) {
	if TX.NumSpecified() != 0 || S0.NumSpecified() != 3 || R.NumSpecified() != 2 {
		t.Error("NumSpecified wrong for TX/S0/R")
	}
}

func randomTriple(r *rand.Rand) Triple {
	return NewTriple(V(r.Intn(3)), V(r.Intn(3)), V(r.Intn(3)))
}

func allSpecifiedTriples() []Triple {
	var out []Triple
	vs := []V{Zero, One}
	for _, a := range vs {
		for _, b := range vs {
			for _, c := range vs {
				out = append(out, NewTriple(a, b, c))
			}
		}
	}
	return out
}
