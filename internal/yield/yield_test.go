package yield

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/pathenum"
)

// uniquePaths extracts the distinct paths of a fault list, preserving
// length-descending order.
func uniquePaths(fs []faults.Fault) [][]int {
	seen := make(map[string]bool)
	var out [][]int
	for i := range fs {
		k := fs[i].Key()[3:] // strip direction
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, fs[i].Path)
	}
	return out
}

func enumeratedPaths(t *testing.T, c *circuit.Circuit) [][]int {
	t.Helper()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	return uniquePaths(res.Faults)
}

// chains builds a circuit of two disjoint buffer chains of the given
// lengths, so their path delays are independent.
func chains(t *testing.T, la, lb int) (*circuit.Circuit, [][]int) {
	t.Helper()
	b := circuit.NewBuilder("chains")
	mk := func(prefix string, n int) {
		cur := b.AddInput(prefix + "0")
		for i := 1; i < n; i++ {
			cur = b.AddGate(circuit.Buf, prefix+itoa(i), cur)
		}
		b.MarkOutput(cur)
	}
	mk("a", la)
	mk("b", lb)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	return c, uniquePaths(res.Faults)
}

func itoa(i int) string {
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestDisplacementBySet(t *testing.T) {
	// Two disjoint chains: nominal lengths 10 and 9. Only the longer
	// one would be in P0; the paper's risk is that the nominally
	// shorter chain is the actually slower one.
	c, paths := chains(t, 10, 9)
	if len(paths) != 2 || len(paths[0]) != 10 || len(paths[1]) != 9 {
		t.Fatalf("unexpected path set: %d paths", len(paths))
	}
	p0 := paths[:1]
	p1 := paths[1:]
	risk, err := DisplacementBySet(c, p0, p1, UniformVariation(c, 0.3), 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if risk <= 0 || risk >= 0.5 {
		t.Errorf("escape risk %f outside the plausible (0, 0.5) band", risk)
	}
	// With tighter variation the risk must shrink.
	tight, err := DisplacementBySet(c, p0, p1, UniformVariation(c, 0.05), 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if tight >= risk {
		t.Errorf("tighter variation did not reduce the risk: %f vs %f", tight, risk)
	}
	t.Logf("escape risk: ±30%% -> %.2f%%, ±5%% -> %.2f%%", 100*risk, 100*tight)
}

func TestDisplacementBySetNestedPathsAreSafe(t *testing.T) {
	// s27's next-to-longest paths are prefixes of the longest ones
	// plus a different tail; sharing almost all lines, they can never
	// overtake under bounded per-line variation — a structural insight
	// the Monte-Carlo confirms.
	c := bench.S27()
	paths := enumeratedPaths(t, c)
	risk, err := DisplacementBySet(c, paths[:4], paths[4:], UniformVariation(c, 0.3), 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if risk != 0 {
		t.Errorf("nested s27 paths produced escape risk %f, expected 0", risk)
	}
}

func TestDistributions(t *testing.T) {
	if Fixed(3).Nominal() != 3 {
		t.Error("Fixed nominal wrong")
	}
	u := Uniform{Lo: 2, Hi: 4}
	if u.Nominal() != 3 {
		t.Error("Uniform nominal wrong")
	}
	n := Normal{Mean: 5, Sigma: 2}
	if n.Nominal() != 5 {
		t.Error("Normal nominal wrong")
	}
	// Normal samples clamp at zero.
	r := newRand()
	for i := 0; i < 1000; i++ {
		if v := (Normal{Mean: 0.1, Sigma: 5}).Sample(r); v < 0 {
			t.Fatal("negative sample")
		}
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(9)) }

func TestBoundaryCrossProb(t *testing.T) {
	// Disjoint chains of lengths 10 and 9: the P0/P1 boundary is one
	// unit over independent sums, so moderate variation crosses it
	// regularly.
	c, paths := chains(t, 10, 9)
	cross, err := BoundaryCrossProb(c, paths[:1], paths[1:], UniformVariation(c, 0.2), 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cross < 0.01 {
		t.Errorf("boundary crossing %f unexpectedly rare at ±20%%", cross)
	}
	// Zero variance: the nominal boundary holds (strict inequality).
	m := make(Model, len(c.Lines))
	for i := range m {
		m[i] = Fixed(1)
	}
	none, err := BoundaryCrossProb(c, paths[:1], paths[1:], m, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if none != 0 {
		t.Errorf("zero variance crossed the boundary: %f", none)
	}
	// Errors.
	if _, err := BoundaryCrossProb(c, nil, paths[1:], m, 10, 1); err == nil {
		t.Error("empty P0 must fail")
	}
	if _, err := BoundaryCrossProb(c, paths[:1], paths[1:], m, 0, 1); err == nil {
		t.Error("zero samples must fail")
	}
	t.Logf("chains(10,9) ±20%% boundary crossing: %.1f%%", 100*cross)
}

func TestBoundaryCrossSharedTrunkIsRobust(t *testing.T) {
	// s27's paths all funnel through one trunk; shared lines cancel in
	// every pairwise comparison, leaving 1-vs-2-line tails that ±20%
	// variation cannot invert. The selection is structurally robust
	// there — path diversity, not just variance, drives the risk.
	c := bench.S27()
	paths := enumeratedPaths(t, c)
	cross, err := BoundaryCrossProb(c, paths[:4], paths[4:], UniformVariation(c, 0.2), 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cross != 0 {
		t.Errorf("s27 trunk structure crossed at ±20%%: %f", cross)
	}
}
