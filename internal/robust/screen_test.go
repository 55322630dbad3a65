package robust

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/synth"
)

// screenCircuit builds a circuit by benchmark name: the two embedded
// ISCAS netlists or a synthetic stand-in.
func screenCircuit(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	switch name {
	case "c17":
		return bench.C17()
	case "s27":
		return bench.S27()
	}
	c, err := synth.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func screenFaults(t testing.TB, c *circuit.Circuit, np int) []faults.Fault {
	t.Helper()
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: np, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	return res.Faults
}

// screenOracle is the screen as Section 3.1 states it, one fault at a
// time: generate the fault's alternatives, then keep each one whose
// implication closure, computed from scratch, is consistent.
func screenOracle(c *circuit.Circuit, fs []faults.Fault) (kept []FaultConditions, eliminated int) {
	im := NewImplier(c)
	for i := range fs {
		var ok []Cube
		for _, alt := range Conditions(c, &fs[i]) {
			if im.ImplyConsistent(&alt) {
				ok = append(ok, alt)
			}
		}
		if len(ok) == 0 {
			eliminated++
			continue
		}
		kept = append(kept, FaultConditions{Fault: fs[i], Alts: ok})
	}
	return kept, eliminated
}

// TestScreenGolden pins the output of Screen on three synthetic circuits with XOR gates: the SHA-256
// of each kept fault's input index, every alternative's nets and
// values in order, and the eliminated count. The digests were
// recorded with the per-fault screen that screenOracle restates.
func TestScreenGolden(t *testing.T) {
	cases := []struct {
		circuit string
		np      int
		robust  string
	}{
		{"s953", 1000,
			"77f62f12876d3602cf874403416316837e81c02e573fcef717c9c750af48c4e4"},
		{"s1196", 1000,
			"d885f0651663a194261f478f2dc09f02191463f63865271d2f712cd69e480008"},
		{"s1423", 2000,
			"25937cd6fac1c5d20a7fef3a243a675787a52059c9c36cc930a5f75b28e6ee05"},
	}
	for _, tc := range cases {
		t.Run(tc.circuit, func(t *testing.T) {
			c := screenCircuit(t, tc.circuit)
			fs := screenFaults(t, c, tc.np)
			kept, elim := Screen(c, fs)
			h := sha256.New()
			j := 0
			for i := range fs {
				if j < len(kept) && reflect.DeepEqual(kept[j].Fault, fs[i]) {
					for a, q := range kept[j].Alts {
						fmt.Fprintln(h, i, a, q.Nets, q.Vals)
					}
					j++
				}
			}
			if j != len(kept) {
				t.Fatalf("kept faults are not an in-order subsequence of the input")
			}
			fmt.Fprintln(h, "eliminated", elim)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.robust {
				t.Errorf("%d kept, %d eliminated, sha=%s, want %s", len(kept), elim, got, tc.robust)
			}
		})
	}
}

// TestScreenMatchesPerFault checks the screen against screenOracle
// on enumerated faults and on a shuffled input
// with duplicated faults, and checks that every kept cube owns its
// slices.
func TestScreenMatchesPerFault(t *testing.T) {
	cases := []struct {
		circuit string
		np      int
	}{
		{"c17", 1000}, {"s27", 1000}, {"b09", 1000}, {"s641", 1000},
		{"s953", 1000}, {"s1196", 1000}, {"s1423", 2000}, {"s1488", 1000},
		{"b04", 1000}, {"s9234r", 2000},
	}
	for _, tc := range cases {
		t.Run(tc.circuit, func(t *testing.T) {
			c := screenCircuit(t, tc.circuit)
			fs := screenFaults(t, c, tc.np)
			rng := rand.New(rand.NewSource(int64(len(fs))))
			shuffled := append([]faults.Fault(nil), fs...)
			for i := 0; i < len(fs)/4; i++ {
				shuffled = append(shuffled, fs[rng.Intn(len(fs))])
			}
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, in := range []struct {
				name string
				fs   []faults.Fault
			}{{"enumerated", fs}, {"shuffled", shuffled}} {
				want, wantElim := screenOracle(c, in.fs)
				got, gotElim := Screen(c, in.fs)
				if gotElim != wantElim || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d kept, %d eliminated; oracle %d kept, %d eliminated",
						in.name, len(got), gotElim, len(want), wantElim)
				}
				// Append to every kept cube: if two cubes shared a
				// backing array, one append would overwrite the
				// other's values.
				for i := range got {
					for a := range got[i].Alts {
						q := &got[i].Alts[a]
						q.Nets = append(q.Nets, -1)
						q.Vals = append(q.Vals, 0)
					}
				}
				for i := range got {
					for a, q := range got[i].Alts {
						w := want[i].Alts[a]
						n := len(q.Nets) - 1
						if q.Nets[n] != -1 || q.Vals[n] != 0 ||
							!reflect.DeepEqual(q.Nets[:n], w.Nets) || !reflect.DeepEqual(q.Vals[:n], w.Vals) {
							t.Fatalf("%s: kept cubes share backing arrays", in.name)
						}
					}
				}
			}
		})
	}
}
