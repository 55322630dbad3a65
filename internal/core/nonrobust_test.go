package core

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
)

// TestNonRobustATPGEndToEnd runs the whole flow under the non-robust
// sensitization criterion: more faults survive screening and at least
// as many are detected, because non-robust conditions are strictly
// weaker than robust ones.
func TestNonRobustATPGEndToEnd(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b03"])
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 600, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	rob, robElim := robust.Screen(c, res.Faults)
	non, nonElim := robust.ScreenWith(c, res.Faults, false)
	if len(non) < len(rob) {
		t.Fatalf("non-robust screening kept fewer faults: %d vs %d", len(non), len(rob))
	}
	if nonElim > robElim {
		t.Fatalf("non-robust screening eliminated more: %d vs %d", nonElim, robElim)
	}
	t.Logf("screening: robust keeps %d (elim %d), non-robust keeps %d (elim %d)",
		len(rob), robElim, len(non), nonElim)

	robRun := Generate(c, rob, Config{Heuristic: ValueBased, Seed: 33})
	nonRun := Generate(c, non, Config{Heuristic: ValueBased, Seed: 33})
	t.Logf("robust: %d/%d with %d tests; non-robust: %d/%d with %d tests",
		robRun.DetectedCount, len(rob), len(robRun.Tests),
		nonRun.DetectedCount, len(non), len(nonRun.Tests))
	if nonRun.DetectedCount < robRun.DetectedCount {
		t.Errorf("non-robust run detected fewer faults overall: %d vs %d",
			nonRun.DetectedCount, robRun.DetectedCount)
	}
	// Soundness: reported detections re-simulate.
	resim := faultsim.Run(c, nonRun.Tests, non)
	for i := range non {
		if (resim[i] >= 0) != nonRun.Detected[i] {
			t.Fatalf("fault %d: reported %v, resim %v", i, nonRun.Detected[i], resim[i] >= 0)
		}
	}
	// Every robust test set also achieves its coverage under the
	// non-robust criterion (robust conditions are stronger).
	crossCount := faultsim.Count(c, robRun.Tests, non)
	if crossCount < robRun.DetectedCount {
		t.Errorf("robust test set covers %d non-robust faults, less than its own %d robust detections",
			crossCount, robRun.DetectedCount)
	}
}
