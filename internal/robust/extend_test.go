package robust

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/pathenum"
	"repro/internal/synth"
	"repro/internal/tval"
)

// implied returns every implied value, plane-major.
func implied(im *Implier) []tval.V {
	var out []tval.V
	for p := 0; p < circuit.NumPlanes; p++ {
		for line := range im.c.Lines {
			out = append(out, im.Value(line, p))
		}
	}
	return out
}

func sameValues(a, b []tval.V) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// Extend on the implications of a base cube must agree with implying
// the merged cube from scratch: the same verdict and, when consistent,
// the same value on every net and plane. Rollback must restore the
// values exactly. The cubes are merged from screened fault conditions,
// as in the secondary-target loop, which keeps some extensions and
// rolls back the others.
func TestImplierExtendMatchesFromScratch(t *testing.T) {
	s953, err := synth.Benchmark("s953")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{bench.C17(), bench.S27(), s953} {
		t.Run(c.Name, func(t *testing.T) {
			res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 1000, Mode: pathenum.DistancePruned})
			if err != nil {
				t.Fatal(err)
			}
			kept, _ := Screen(c, res.Faults)
			rng := rand.New(rand.NewSource(1))
			randomAlt := func() *Cube {
				f := &kept[rng.Intn(len(kept))]
				return &f.Alts[rng.Intn(len(f.Alts))]
			}
			inc, ref := NewImplier(c), NewImplier(c)
			verdicts := map[bool]int{}
			for trial := 0; trial < 50; trial++ {
				var base Cube
				for k := rng.Intn(4); k >= 0; k-- {
					if m, ok := base.Merge(randomAlt()); ok && ref.ImplyConsistent(&m) {
						base = m
					}
				}
				if !inc.ImplyConsistent(&base) {
					t.Fatal("consistent base cube reported inconsistent")
				}
				for step := 0; step < 20; step++ {
					before, mark := implied(inc), inc.Mark()
					alt := randomAlt()
					got := inc.Extend(alt)
					m, ok := base.Merge(alt)
					want := ok && ref.ImplyConsistent(&m)
					verdicts[want]++
					if got != want {
						t.Fatalf("trial %d step %d: Extend = %v, from scratch = %v", trial, step, got, want)
					}
					if got && !sameValues(implied(inc), implied(ref)) {
						t.Fatalf("trial %d step %d: extended values differ from the merged cube's", trial, step)
					}
					if got && rng.Intn(3) == 0 {
						base = m // keep the extension
						continue
					}
					inc.Rollback(mark)
					if !sameValues(implied(inc), before) {
						t.Fatalf("trial %d step %d: Rollback did not restore the values", trial, step)
					}
				}
			}
			if verdicts[true] == 0 || verdicts[false] == 0 {
				t.Fatalf("degenerate verdicts: %v", verdicts)
			}
			inc.Rollback(0)
			for _, v := range implied(inc) {
				if v != tval.X {
					t.Fatal("Rollback(0) left an implied value")
				}
			}
		})
	}
}
