package justify

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/robust"
	"repro/internal/tval"
)

// On c17, requiring net 10 = NAND(1, 3) to be steady 0 implies both
// patterns of inputs 1 and 3, the whole support of the requirement.
// Inputs 2, 6 and 7 lie outside it: a value on them changes no
// required net, so probing them can never find a necessary value, and
// the justifier must never probe them. With every support position
// implied, that means no probe at all.
func TestProbeOnlyRequirementSupport(t *testing.T) {
	c := bench.C17()
	var q robust.Cube
	mustAdd(t, &q, c.LineByName("10").ID, tval.S0)
	for seed := int64(1); seed <= 20; seed++ {
		j := New(c, Config{Seed: seed})
		test, ok := j.Justify(&q)
		if !ok || !q.CoveredBy(test.Simulate(c)) {
			t.Fatalf("seed %d: justification failed", seed)
		}
		if p := j.Stats().Probes; p != 0 {
			t.Errorf("seed %d: %d probes, want 0 (only inputs outside the requirement support are unspecified)", seed, p)
		}
	}

	// The paper-literal ablation still probes every unspecified
	// position: both values of both patterns of inputs 2, 6 and 7 in
	// its first sweep.
	j := New(c, Config{Seed: 1, DisableDirtyTracking: true})
	if _, ok := j.Justify(&q); !ok {
		t.Fatal("justification failed without dirty tracking")
	}
	if p := j.Stats().Probes; p < 12 {
		t.Errorf("DisableDirtyTracking: %d probes, want at least 12", p)
	}
}
