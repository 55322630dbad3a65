package core

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/robust"
)

// The per-set secondary tallies and the per-test regeneration counts
// are bookkeeping over the same events the aggregate counters see:
// they must reconcile exactly.
func TestEnrichPerSetTalliesReconcile(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	if len(fcs) < 12 {
		t.Fatalf("only %d screened faults on s27", len(fcs))
	}
	p0, p1 := fcs[:10], fcs[10:]
	res := Enrich(c, p0, p1, Config{Heuristic: ValueBased, Seed: 1})

	if len(res.SecondaryAcceptsBySet) != 2 || len(res.SecondaryRejectsBySet) != 2 {
		t.Fatalf("per-set tallies sized %d/%d, want 2/2",
			len(res.SecondaryAcceptsBySet), len(res.SecondaryRejectsBySet))
	}
	if sum := res.SecondaryAcceptsBySet[0] + res.SecondaryAcceptsBySet[1]; sum != res.SecondaryAccepts {
		t.Errorf("accepts by set %v sum %d != total %d",
			res.SecondaryAcceptsBySet, sum, res.SecondaryAccepts)
	}
	if sum := res.SecondaryRejectsBySet[0] + res.SecondaryRejectsBySet[1]; sum != res.SecondaryRejects {
		t.Errorf("rejects by set %v sum %d != total %d",
			res.SecondaryRejectsBySet, sum, res.SecondaryRejects)
	}
	if len(res.RegenPerTest) != len(res.Tests) {
		t.Fatalf("RegenPerTest has %d entries for %d tests", len(res.RegenPerTest), len(res.Tests))
	}
	regens := 0
	for _, r := range res.RegenPerTest {
		if r < 0 {
			t.Fatalf("negative regeneration count: %v", res.RegenPerTest)
		}
		regens += r
	}
	// Regenerations are exactly the non-cheap accepts.
	if want := res.SecondaryAccepts - res.CheapAccepts; regens != want {
		t.Errorf("regenerations sum %d != accepts-cheap %d", regens, want)
	}
	// The enrichment procedure must actually have considered P1
	// secondaries on this workload (otherwise the split is vacuous).
	if res.SecondaryAcceptsBySet[1]+res.SecondaryRejectsBySet[1] == 0 {
		t.Errorf("no P1 secondary outcomes recorded: %+v", res.SecondaryAcceptsBySet)
	}
}

// Generate populates only set 0, and the uncompacted heuristic records
// zero regenerations per test.
func TestGeneratePerSetTallies(t *testing.T) {
	c := bench.S27()
	p0 := screened(t, c, 0)
	res := Generate(c, p0, Config{Heuristic: ValueBased, Seed: 1})
	if len(res.RegenPerTest) != len(res.Tests) {
		t.Fatalf("RegenPerTest has %d entries for %d tests", len(res.RegenPerTest), len(res.Tests))
	}
	if len(res.SecondaryAcceptsBySet) != 1 ||
		res.SecondaryAcceptsBySet[0] != res.SecondaryAccepts {
		t.Errorf("generate accepts by set = %v, total %d", res.SecondaryAcceptsBySet, res.SecondaryAccepts)
	}

	un := Generate(c, p0, Config{Heuristic: Uncompacted, Seed: 1})
	if len(un.RegenPerTest) != len(un.Tests) {
		t.Fatalf("uncompacted RegenPerTest has %d entries for %d tests", len(un.RegenPerTest), len(un.Tests))
	}
	for _, r := range un.RegenPerTest {
		if r != 0 {
			t.Errorf("uncompacted run regenerated a test: %v", un.RegenPerTest)
		}
	}
}

// The one pair of wall-clock reads, in the generation loop that
// Generate and EnrichK share, is annotated //lint:telemetry: it may
// feed the Elapsed field and nothing else.
// This pins that invariant — two same-seed runs must be deep-equal in
// every field once Elapsed is zeroed, so the clock demonstrably never
// leaks into tests, detection bookkeeping or justification counters
// (which journal replay and the engine result cache digest).
func TestWallClockConfinedToElapsed(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	run := func() *Result {
		res := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 9})
		res.Elapsed = 0
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed Generate results differ beyond Elapsed:\n%+v\n%+v", a, b)
	}

	if len(fcs) < 12 {
		t.Fatalf("only %d screened faults on s27", len(fcs))
	}
	sets := [][]robust.FaultConditions{fcs[:8], fcs[8:]}
	runK := func() *EnrichKResult {
		res := EnrichK(c, sets, Config{Seed: 9})
		res.Elapsed = 0
		return res
	}
	ka, kb := runK(), runK()
	if !reflect.DeepEqual(ka, kb) {
		t.Fatalf("same-seed EnrichK results differ beyond Elapsed:\n%+v\n%+v", ka, kb)
	}
}
