package justify_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/justify"
	"repro/internal/robust"
	"repro/internal/tval"
)

// checkFullSweeps justifies every cube twice from the same seed: with
// watched probes, and with the paper's full sweeps, which re-probe
// every input after every change. Forced values are monotone, so the
// necessary-value fixpoint does not depend on which inputs are probed
// when; the two must return the same test or failure and make the
// same decisions on every cube, and differ only in probes.
func checkFullSweeps(t testing.TB, c *circuit.Circuit, cfg justify.Config, cubes []robust.Cube) {
	t.Helper()
	watched := justify.New(c, cfg)
	cfg.DisableDirtyTracking = true
	full := justify.New(c, cfg)
	for i := range cubes {
		t1, ok1 := watched.Justify(&cubes[i])
		t2, ok2 := full.Justify(&cubes[i])
		if ok1 != ok2 || ok1 && t1.String() != t2.String() {
			t.Fatalf("%s cube %d: watched probes %v %v, full sweeps %v %v", c.Name, i, ok1, t1, ok2, t2)
		}
		if d1, d2 := watched.Stats().Decisions, full.Stats().Decisions; d1 != d2 {
			t.Fatalf("%s cube %d: watched probes made %d decisions in all, full sweeps %d", c.Name, i, d1, d2)
		}
	}
}

// TestJustifyDirtyTrackingEquivalentQuality runs checkFullSweeps on
// every seedCase of s27, with and without implication seeding, and on
// the first 100 faults' seedCases of four larger circuits.
func TestJustifyDirtyTrackingEquivalentQuality(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		faults  int
	}{{"s27", 1 << 30}, {"s953", 100}, {"s641", 100}, {"b04", 100}, {"s1423", 100}} {
		d := prepare(t, tc.circuit, 200)
		var cubes []robust.Cube
		for _, sc := range seedCases(d, tc.faults) {
			cubes = append(cubes, sc.cube)
		}
		checkFullSweeps(t, d.Circuit, justify.Config{Seed: 5}, cubes)
		if tc.circuit == "s27" {
			checkFullSweeps(t, d.Circuit, justify.Config{Seed: 5, DisableImplicationSeed: true}, cubes)
		}
	}
}

// FuzzWatchedProbes runs checkFullSweeps on parsed circuits, seeded
// from the parser's corpus, with random cubes of one to four nets; an
// odd seed turns implication seeding off, leaving more to the probes.
func FuzzWatchedProbes(f *testing.F) {
	for i, src := range bench.Corpus {
		f.Add(src, int64(i))
	}
	// Seed 33 draws a = x01 on a bare input, without implication
	// seeding. Once the second pattern is forced to 1, only the stable
	// rule rules out a first-pattern 1: the input's commit must
	// re-probe its own other pattern, though no gate reads it.
	f.Add("INPUT(a)\nOUTPUT(a)", int64(33))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		c, err := bench.ParseCombinationalString("fuzz", src)
		if err != nil || len(c.Lines) > 4096 || len(c.PIs) == 0 {
			return
		}
		var nets []int // PIs and stems
		for id := range c.Lines {
			if c.Lines[id].Net == id {
				nets = append(nets, id)
			}
		}
		r := rand.New(rand.NewSource(seed))
		cubes := make([]robust.Cube, 16)
		for i := range cubes {
			for n := 1 + r.Intn(4); n > 0; n-- {
				v := tval.NewTriple(tval.V(r.Intn(3)), tval.V(r.Intn(3)), tval.V(r.Intn(3)))
				one := robust.Cube{Nets: []int{nets[r.Intn(len(nets))]}, Vals: []tval.Triple{v}}
				if m, ok := cubes[i].Merge(&one); ok {
					cubes[i] = m
				}
			}
		}
		checkFullSweeps(t, c, justify.Config{Seed: seed, DisableImplicationSeed: seed%2 != 0}, cubes)
	})
}
