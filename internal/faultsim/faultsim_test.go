package faultsim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/tval"
)

// walkRobust is an independent oracle: it walks the fault's path
// through the simulated values and checks the classic robust
// propagation conditions gate by gate, instead of going through the
// A(p) cube. Used to cross-validate FaultConditions.DetectedBy.
func walkRobust(c *circuit.Circuit, f *faults.Fault, sim []tval.Triple) bool {
	tr := tval.R
	if f.Dir == faults.SlowToFall {
		tr = tval.F
	}
	if sim[f.Path[0]] != tr {
		return false
	}
	for i := 1; i < len(f.Path); i++ {
		ln := &c.Lines[f.Path[i]]
		if ln.Kind == circuit.LineBranch {
			continue
		}
		g := &c.Gates[ln.Gate]
		switch g.Type {
		case circuit.Not:
			tr = tr.Not()
		case circuit.Buf:
			// unchanged
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			ctrl, _ := g.Type.Controlling()
			nc := ctrl.Not()
			for _, in := range g.In {
				if in == f.Path[i-1] {
					continue
				}
				v := sim[c.Lines[in].Net]
				if tr.P3() == ctrl {
					// Toward controlling: hazard-free non-controlling.
					if v != tval.NewTriple(nc, nc, nc) {
						return false
					}
				} else if v.P3() != nc {
					return false
				}
			}
			if g.Type.Inverting() {
				tr = tr.Not()
			}
		case circuit.Xor, circuit.Xnor:
			flip := g.Type == circuit.Xnor
			for _, in := range g.In {
				if in == f.Path[i-1] {
					continue
				}
				v := sim[c.Lines[in].Net]
				if v != tval.S0 && v != tval.S1 {
					return false
				}
				if v == tval.S1 {
					flip = !flip
				}
			}
			if flip {
				tr = tr.Not()
			}
		}
		// The on-path line itself must carry the expected transition.
		if sim[f.Path[i]] != tr {
			return false
		}
	}
	return true
}

func s27Screened(t *testing.T) (*circuit.Circuit, []robust.FaultConditions) {
	t.Helper()
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	return c, kept
}

func TestDetectsMatchesWalkOracle(t *testing.T) {
	c, kept := s27Screened(t)
	r := rand.New(rand.NewSource(9))
	agree, detected := 0, 0
	for trial := 0; trial < 400; trial++ {
		test := randomTest(c, r)
		sim := test.Simulate(c)
		for i := range kept {
			got := kept[i].DetectedBy(sim)
			want := walkRobust(c, &kept[i].Fault, sim)
			if got != want {
				t.Fatalf("trial %d fault %s: cube detection %v, walk oracle %v\ntest %v",
					trial, kept[i].Fault.Format(c), got, want, test)
			}
			agree++
			if got {
				detected++
			}
		}
	}
	if detected == 0 {
		t.Error("no random test detected any fault; oracle comparison vacuous")
	}
	t.Logf("%d comparisons, %d detections", agree, detected)
}

func randomTest(c *circuit.Circuit, r *rand.Rand) circuit.TwoPattern {
	tp := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i := range tp.P1 {
		tp.P1[i] = tval.V(r.Intn(2))
		tp.P3[i] = tval.V(r.Intn(2))
	}
	return tp
}

func TestGeneratedTestsDetectTheirFaults(t *testing.T) {
	c, kept := s27Screened(t)
	j := justify.New(c, justify.Config{Seed: 11})
	var tests []circuit.TwoPattern
	var expect []int // fault index expected detected by tests[i]
	for i := range kept {
		if test, ok := j.Justify(&kept[i].Alts[0]); ok {
			tests = append(tests, test)
			expect = append(expect, i)
		}
	}
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	for ti, fi := range expect {
		if !Detects(c, tests[ti], &kept[fi]) {
			t.Errorf("test %d does not detect the fault it was generated for: %s",
				ti, kept[fi].Fault.Format(c))
		}
	}
	// Run must agree with Detects and drop faults at their first
	// detection.
	first := Run(c, tests, kept)
	for fi, ti := range first {
		if ti < 0 {
			continue
		}
		if !Detects(c, tests[ti], &kept[fi]) {
			t.Errorf("Run claims test %d detects fault %d but Detects disagrees", ti, fi)
		}
		for earlier := 0; earlier < ti; earlier++ {
			if Detects(c, tests[earlier], &kept[fi]) {
				t.Errorf("fault %d: first detection claimed at %d but test %d already detects it",
					fi, ti, earlier)
			}
		}
	}
}

func TestCount(t *testing.T) {
	c, kept := s27Screened(t)
	j := justify.New(c, justify.Config{Seed: 13})
	var tests []circuit.TwoPattern
	for i := range kept {
		if test, ok := j.Justify(&kept[i].Alts[0]); ok {
			tests = append(tests, test)
		}
	}
	n := Count(c, tests, kept)
	if n == 0 {
		t.Fatal("count = 0")
	}
	if n > len(kept) {
		t.Fatalf("count %d exceeds fault population %d", n, len(kept))
	}
	// Empty test set detects nothing.
	if Count(c, nil, kept) != 0 {
		t.Error("empty test set must detect nothing")
	}
	t.Logf("s27: %d tests detect %d/%d faults", len(tests), n, len(kept))
}

func TestAccidentalDetection(t *testing.T) {
	// A single test usually detects more than the fault it was
	// generated for — the effect the paper's compaction leans on.
	c, kept := s27Screened(t)
	j := justify.New(c, justify.Config{Seed: 17})
	multi := false
	for i := range kept {
		test, ok := j.Justify(&kept[i].Alts[0])
		if !ok {
			continue
		}
		sim := test.Simulate(c)
		n := 0
		for k := range kept {
			if kept[k].DetectedBy(sim) {
				n++
			}
		}
		if n > 1 {
			multi = true
			break
		}
	}
	if !multi {
		t.Error("no generated test detected multiple faults; accidental detection absent")
	}
}

// simSetup enumerates and screens the faults of a synthetic benchmark
// and builds a deterministic random test set.
func simSetup(tb testing.TB, profile string, np, nTests int) (*circuit.Circuit, []circuit.TwoPattern, []robust.FaultConditions) {
	tb.Helper()
	c, err := synth.Benchmark(profile)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: np, Mode: pathenum.DistancePruned})
	if err != nil {
		tb.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	rng := rand.New(rand.NewSource(7))
	tests := make([]circuit.TwoPattern, nTests)
	for i := range tests {
		tp := circuit.TwoPattern{
			P1: make([]tval.V, len(c.PIs)),
			P3: make([]tval.V, len(c.PIs)),
		}
		for k := range tp.P1 {
			tp.P1[k] = tval.V(rng.Intn(2))
			tp.P3[k] = tval.V(rng.Intn(2))
		}
		tests[i] = tp
	}
	return c, tests, kept
}

// runNaive is the pre-fix Run: already-detected faults are skipped
// with a per-test check but stay in the scan list. Kept as the
// benchmark baseline for the short-circuit win.
func runNaive(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) []int {
	firstDet := make([]int, len(fcs))
	for i := range firstDet {
		firstDet[i] = -1
	}
	remaining := len(fcs)
	for ti := range tests {
		if remaining == 0 {
			break
		}
		sim := tests[ti].Simulate(c)
		for fi := range fcs {
			if firstDet[fi] >= 0 {
				continue
			}
			if fcs[fi].DetectedBy(sim) {
				firstDet[fi] = ti
				remaining--
			}
		}
	}
	return firstDet
}

func TestRunMatchesNaive(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 64)
	want := runNaive(c, tests, fcs)
	got := Run(c, tests, fcs)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("short-circuit Run diverges from reference")
	}
}

// RunParallel and CountParallel survive as forwarders to the
// word-parallel simulator; they must still reproduce the scalar Run.
func TestRunParallelMatchesSerial(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 64)
	want := Run(c, tests, fcs)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		got, err := RunParallel(context.Background(), c, tests, fcs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel result diverges from serial", workers)
		}
	}
	n, err := CountParallel(context.Background(), c, tests, fcs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want2 := Count(c, tests, fcs)
	if n != want2 {
		t.Errorf("CountParallel = %d, want %d", n, want2)
	}
}

func TestRunParallelEmpty(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 4)
	if got, err := RunParallel(context.Background(), c, nil, fcs, 4); err != nil || len(got) != len(fcs) {
		t.Errorf("no tests: got %d results, err %v", len(got), err)
	}
	if got, err := RunParallel(context.Background(), c, tests, nil, 4); err != nil || len(got) != 0 {
		t.Errorf("no faults: got %d results, err %v", len(got), err)
	}
}
