package justify

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/tval"
)

func TestJustifyPaperExample(t *testing.T) {
	// The slow-to-rise fault on (G1, G12, G12->G13, G13) of s27:
	// A(p) = {G1=0x1, G7=000, G2=xx0}. All requirements are on
	// primary inputs, so justification must always succeed.
	c := bench.S27()
	j := New(c, Config{Seed: 1})
	var q robust.Cube
	g1 := c.LineByName("G1").ID
	g7 := c.LineByName("G7").ID
	g2 := c.LineByName("G2").ID
	mustAdd(t, &q, g1, tval.R)
	mustAdd(t, &q, g7, tval.S0)
	mustAdd(t, &q, g2, tval.FinalZero)

	test, ok := j.Justify(&q)
	if !ok {
		t.Fatal("justification failed on a PI-only cube")
	}
	if !test.FullySpecified() {
		t.Fatalf("test not fully specified: %v", test)
	}
	sim := test.Simulate(c)
	if !q.CoveredBy(sim) {
		t.Fatal("returned test does not satisfy the cube")
	}
	// Source must rise, G7 must be steady 0.
	if sim[g1] != tval.R {
		t.Errorf("G1 = %v, want 0x1", sim[g1])
	}
	if sim[g7] != tval.S0 {
		t.Errorf("G7 = %v, want 000", sim[g7])
	}
}

func mustAdd(t *testing.T, q *robust.Cube, net int, v tval.Triple) {
	t.Helper()
	m, ok := q.Get(net).Merge(v)
	if !ok {
		t.Fatalf("cube add conflict on net %d", net)
	}
	_ = m
	// Re-add through Merge of a single-net cube to keep the cube API
	// exercised.
	single := robust.Cube{Nets: []int{net}, Vals: []tval.Triple{v}}
	merged, ok := q.Merge(&single)
	if !ok {
		t.Fatalf("merge conflict on net %d", net)
	}
	*q = merged
}

func TestJustifyUnsatisfiable(t *testing.T) {
	// y = AND(a,b) with y required 111 and a required xx0.
	b := circuit.NewBuilder("unsat")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	y := b.AddGate(circuit.And, "y", a, bb)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	j := New(c, Config{Seed: 2})
	var q robust.Cube
	mustAdd(t, &q, c.LineByName("y").ID, tval.S1)
	mustAdd(t, &q, c.LineByName("a").ID, tval.FinalZero)
	if _, ok := j.Justify(&q); ok {
		t.Fatal("unsatisfiable cube justified")
	}
}

func TestJustifyInternalRequirement(t *testing.T) {
	// Require a rising transition on an internal net: y = AND(a, b),
	// y must rise. Implication cannot force anything (two ways), so
	// decisions and probing must find an assignment.
	b := circuit.NewBuilder("internal")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	y := b.AddGate(circuit.And, "y", a, bb)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := int64(0); seed < 8; seed++ {
		j := New(c, Config{Seed: seed})
		var q robust.Cube
		mustAdd(t, &q, c.LineByName("y").ID, tval.R)
		if test, ok := j.Justify(&q); ok {
			sim := test.Simulate(c)
			if sim[c.LineByName("y").ID] != tval.R {
				t.Fatalf("seed %d: y = %v, want 0x1", seed, sim[c.LineByName("y").ID])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no seed justified a rising AND output")
	}
}

func TestJustifyDeterministicPerSeed(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	run := func() []string {
		j := New(c, Config{Seed: 42})
		var out []string
		for i := range kept {
			if test, ok := j.Justify(&kept[i].Alts[0]); ok {
				out = append(out, test.String())
			} else {
				out = append(out, "fail")
			}
		}
		return out
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("fault %d: run1 %q != run2 %q", i, r1[i], r2[i])
		}
	}
}

func TestJustifySoundnessOnS27(t *testing.T) {
	// Every successful justification must return a test whose
	// simulation covers the cube — for every detectable fault of s27.
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	j := New(c, Config{Seed: 7})
	successes := 0
	for i := range kept {
		for a := range kept[i].Alts {
			test, ok := j.Justify(&kept[i].Alts[a])
			if !ok {
				continue
			}
			successes++
			sim := test.Simulate(c)
			if !kept[i].Alts[a].CoveredBy(sim) {
				t.Fatalf("fault %s: test %v does not satisfy its own cube",
					kept[i].Fault.Format(c), test)
			}
		}
	}
	if successes == 0 {
		t.Fatal("no s27 fault justified")
	}
	t.Logf("s27: %d/%d alternatives justified", successes, len(kept))
}

func TestJustifySuccessRate(t *testing.T) {
	// On a real-size synthetic circuit the justifier must succeed for
	// a reasonable share of screened faults — the paper detects most
	// of P0 on most circuits.
	c := synth.MustGenerate(synth.BenchmarkProfiles["b09"])
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 300, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	if len(kept) < 20 {
		t.Skipf("too few screened faults: %d", len(kept))
	}
	j := New(c, Config{Seed: 3})
	ok := 0
	for i := range kept {
		if _, s := j.Justify(&kept[i].Alts[0]); s {
			ok++
		}
	}
	rate := float64(ok) / float64(len(kept))
	t.Logf("b09 stand-in: justified %d/%d (%.0f%%), probes=%d",
		ok, len(kept), 100*rate, j.Stats().Probes)
	if rate < 0.3 {
		t.Errorf("success rate %.2f too low", rate)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := bench.S27()
	j := New(c, Config{Seed: 1})
	var q robust.Cube
	mustAdd(t, &q, c.LineByName("G1").ID, tval.R)
	j.Justify(&q)
	st := j.Stats()
	if st.Calls != 1 {
		t.Errorf("Calls = %d, want 1", st.Calls)
	}
	if st.Successes != 1 {
		t.Errorf("Successes = %d, want 1", st.Successes)
	}
	if st.Decisions == 0 {
		t.Error("expected some decisions (most inputs are unconstrained)")
	}
}

func TestJustifyNoImplicationSeed(t *testing.T) {
	// With implication seeding disabled the procedure still solves the
	// paper's PI-only example (the necessary-value probing carries it).
	c := bench.S27()
	j := New(c, Config{Seed: 1, DisableImplicationSeed: true})
	var q robust.Cube
	mustAdd(t, &q, c.LineByName("G1").ID, tval.R)
	mustAdd(t, &q, c.LineByName("G7").ID, tval.S0)
	mustAdd(t, &q, c.LineByName("G2").ID, tval.FinalZero)
	test, ok := j.Justify(&q)
	if !ok {
		t.Fatal("justification failed without implication seed")
	}
	if !q.CoveredBy(test.Simulate(c)) {
		t.Fatal("test does not cover the cube")
	}
}

func TestJustifyEmptyCube(t *testing.T) {
	// An unconstrained cube: any fully specified test works.
	c := bench.S27()
	j := New(c, Config{Seed: 1})
	var q robust.Cube
	test, ok := j.Justify(&q)
	if !ok {
		t.Fatal("empty cube must be satisfiable")
	}
	if !test.FullySpecified() {
		t.Error("returned test not fully specified")
	}
}

func TestJustifyReusableAcrossFailures(t *testing.T) {
	// A failure must not poison subsequent calls (state clearing).
	c := bench.S27()
	j := New(c, Config{Seed: 2})
	var bad robust.Cube
	// G13 = NOR(G2, G12) cannot be steady 1 while G2 is steady 1.
	mustAdd(t, &bad, c.LineByName("G13").ID, tval.S1)
	mustAdd(t, &bad, c.LineByName("G2").ID, tval.S1)
	if _, ok := j.Justify(&bad); ok {
		t.Fatal("contradictory cube justified")
	}
	var good robust.Cube
	mustAdd(t, &good, c.LineByName("G1").ID, tval.R)
	if _, ok := j.Justify(&good); !ok {
		t.Fatal("good cube failed after a bad one")
	}
}
