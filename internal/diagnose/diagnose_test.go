package diagnose

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/robust"
	"repro/internal/timingsim"
)

func TestDiagnoseScoring(t *testing.T) {
	// Hand-built scenario on s27: take a generated test set, declare
	// the syndrome "exactly the tests detecting fault k fail", and
	// check fault k gets a perfect score.
	c := bench.S27()
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fcs := d.All()
	er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
	tests := er.Tests

	// Pick a detected fault.
	target := -1
	first := faultsim.Run(c, tests, fcs)
	for fi, ti := range first {
		if ti >= 0 {
			target = fi
			break
		}
	}
	if target < 0 {
		t.Fatal("no detected fault")
	}
	obs := make([]Observation, len(tests))
	for ti := range tests {
		sim := tests[ti].Simulate(c)
		if fcs[target].DetectedBy(sim) {
			obs[ti] = Observation{Failed: true, FailingPOs: []int{fcs[target].Fault.Sink()}}
		}
	}
	cands := Diagnose(c, tests, fcs, obs)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// The target must be in the top-scoring group with no
	// contradictions.
	topScore := cands[0].Score
	found := false
	for _, cd := range cands {
		if cd.Score < topScore {
			break
		}
		if cd.Fault == target {
			found = true
			if cd.Contradicted != 0 || cd.Unexplained != 0 {
				t.Errorf("target has contradictions/unexplained: %+v", cd)
			}
		}
	}
	if !found {
		t.Fatalf("target fault not in the top group (top score %d)", topScore)
	}
	if !PerfectScore(cands, obs) {
		t.Error("top candidate should explain the full syndrome")
	}
}

// TestDiagnoseFromTimingSyndrome is the end-to-end loop: inject a
// physical extra delay on a fault's path, collect the tester syndrome
// with the timing simulator, and verify diagnosis ranks the injected
// fault in the top equivalence group.
func TestDiagnoseFromTimingSyndrome(t *testing.T) {
	c := bench.S27()
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fcs := d.All()
	er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
	tests := er.Tests
	rng := rand.New(rand.NewSource(4))

	detectedIdx := detectedFaults(c, tests, fcs)
	if len(detectedIdx) == 0 {
		t.Fatal("no detected faults")
	}
	trials := 0
	for _, target := range detectedIdx {
		if trials >= 8 {
			break
		}
		trials++
		delays := make(timingsim.Delays, len(c.Lines))
		for l := range delays {
			delays[l] = 1 + rng.Intn(5)
		}
		obs, period := syndrome(t, c, tests, delays, fcs[target].Fault.Path)
		_ = period
		cands := Diagnose(c, tests, fcs, obs)
		if len(cands) == 0 {
			t.Fatalf("no candidates for target %s", fcs[target].Fault.Format(c))
		}
		// The physical injection slows the last line of the target's
		// path, i.e. every path through that line: the diagnosis can
		// resolve the defect to that line, not to one path. Assert:
		// (a) the top candidate's path passes through the slowed line
		// with no contradictions, and (b) the injected fault itself is
		// fully consistent (no contradictions, since all its detecting
		// tests must fail by robustness).
		slowed := fcs[target].Fault.Path[len(fcs[target].Fault.Path)-1]
		topCand := cands[0]
		if topCand.Contradicted != 0 {
			t.Errorf("top candidate has contradictions: %+v", topCand)
		}
		onLine := false
		for _, l := range fcs[topCand.Fault].Fault.Path {
			if l == slowed {
				onLine = true
				break
			}
		}
		if !onLine {
			t.Errorf("top candidate %s does not pass through the slowed line %s",
				fcs[topCand.Fault].Fault.Format(c), c.Lines[slowed].Name)
		}
		for _, cd := range cands {
			if cd.Fault == target {
				if cd.Contradicted != 0 {
					t.Errorf("injected fault %s has contradictions: %+v",
						fcs[target].Fault.Format(c), cd)
				}
				break
			}
		}
	}
}

func detectedFaults(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) []int {
	first := faultsim.Run(c, tests, fcs)
	var out []int
	for fi, ti := range first {
		if ti >= 0 {
			out = append(out, fi)
		}
	}
	return out
}

// syndrome simulates every test on the fault-free and the slowed
// circuit and records which POs mismatch at the fault-free period.
func syndrome(t *testing.T, c *circuit.Circuit, tests []circuit.TwoPattern, delays timingsim.Delays, path []int) ([]Observation, int) {
	t.Helper()
	// Global period: worst fault-free settle time over all tests.
	period := 0
	for _, tp := range tests {
		ff, err := timingsim.Simulate(c, delays, tp)
		if err != nil {
			t.Fatal(err)
		}
		if s := ff.SettleTime(); s > period {
			period = s
		}
	}
	faulty := delays.WithExtraOnPath(path, period+1)
	obs := make([]Observation, len(tests))
	for ti, tp := range tests {
		ff, err := timingsim.Simulate(c, delays, tp)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := timingsim.Simulate(c, faulty, tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, po := range c.POs {
			want := ff.Waveforms[po].Settled()
			got := fr.Waveforms[po].At(period)
			if got != want {
				obs[ti].Failed = true
				obs[ti].FailingPOs = append(obs[ti].FailingPOs, po)
			}
		}
	}
	return obs, period
}

func TestDiagnosePanicsOnMismatch(t *testing.T) {
	c := bench.S27()
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths must panic")
		}
	}()
	Diagnose(c, make([]circuit.TwoPattern, 2), nil, make([]Observation, 1))
}

func TestPerfectScoreEmpty(t *testing.T) {
	if PerfectScore(nil, nil) {
		t.Error("no candidates cannot be perfect")
	}
}

func TestSyndromeRoundTrip(t *testing.T) {
	c := bench.S27()
	po1 := c.POs[0]
	obs := []Observation{
		{},
		{Failed: true},
		{Failed: true, FailingPOs: []int{po1}},
	}
	var sb strings.Builder
	if err := WriteSyndrome(&sb, c, obs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSyndrome(strings.NewReader(sb.String()), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("round trip changed count: %d vs %d", len(got), len(obs))
	}
	for i := range obs {
		if got[i].Failed != obs[i].Failed || len(got[i].FailingPOs) != len(obs[i].FailingPOs) {
			t.Errorf("observation %d changed: %+v vs %+v", i, got[i], obs[i])
		}
	}
}

func TestReadSyndromeErrors(t *testing.T) {
	c := bench.S27()
	for _, src := range []string{
		"MAYBE\n",
		"PASS extra\n",
		"FAIL NotAnOutput\n",
		"FAIL G9\n", // internal net, not a PO end
	} {
		if _, err := ReadSyndrome(strings.NewReader(src), c); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	// Comments and blanks are fine.
	got, err := ReadSyndrome(strings.NewReader("# c\n\nPASS\n"), c)
	if err != nil || len(got) != 1 {
		t.Errorf("comment handling broken: %v %v", got, err)
	}
}
