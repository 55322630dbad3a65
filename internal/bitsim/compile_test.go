package bitsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
)

// screenedSet returns the screened faults of a benchmark profile under
// a path budget: P0 ∪ P1 of the experiments at that budget, whatever
// N_P0 splits it.
func screenedSet(t testing.TB, name string, np int) (*circuit.Circuit, []robust.FaultConditions) {
	t.Helper()
	c := synth.MustGenerate(synth.BenchmarkProfiles[name])
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: np, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	return c, kept
}

// programDigest is the SHA-256 of a program's three arrays, each
// prefixed by its length.
func programDigest(p *Program) string {
	h := sha256.New()
	for _, a := range [][]int32{p.faults, p.alts, p.terms} {
		binary.Write(h, binary.LittleEndian, int64(len(a)))
		binary.Write(h, binary.LittleEndian, a)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompileGolden pins the compiled layout of two paper fault sets
// (N_P 2000, N_P0 700). Term order sets where Program.Detects stops,
// so it must not move; this is the one test that pins it.
func TestCompileGolden(t *testing.T) {
	for _, g := range []struct{ name, sum string }{
		{"s953", "7f44cbcd8d82e13836c9d91a9071e3b6f8ec92d0959d30a12cda698f669b9a93"},
		{"s1423", "d4beeaf7957c171e4723f058738122e87f8cadb994787d18fd457c6075ea0123"},
	} {
		c, fcs := screenedSet(t, g.name, 2000)
		p := Compile(c, fcs)
		if got := programDigest(p); got != g.sum {
			t.Errorf("%s: Compile digest %s, want %s (%d faults, %d alternatives, %d terms)",
				g.name, got, g.sum, len(p.faults)-1, len(p.alts)-1, len(p.terms))
		}
		if cap(p.alts) != len(p.alts) || cap(p.terms) != len(p.terms) || cap(p.faults) != len(p.faults) {
			t.Errorf("%s: program holds slack: alts %d/%d, terms %d/%d, faults %d/%d", g.name,
				len(p.alts), cap(p.alts), len(p.terms), cap(p.terms), len(p.faults), cap(p.faults))
		}
	}
}

// compiled keeps BenchmarkCompilePaperB04's result live.
var compiled *Program

// BenchmarkCompilePaperB04 compiles paper-scale b04's screened faults
// (N_P 10000).
func BenchmarkCompilePaperB04(b *testing.B) {
	c, fcs := screenedSet(b, "b04", 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled = Compile(c, fcs)
	}
}
