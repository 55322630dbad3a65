package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/robust"
	"repro/internal/synth"
)

func TestEnrichKThreeSets(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b09"])
	fcs := screened(t, c, 2000)
	raw := make([]faults.Fault, len(fcs))
	for i := range fcs {
		raw[i] = fcs[i].Fault
	}
	parts := faults.PartitionK(raw, []int{len(raw) / 4, len(raw) / 2})
	if len(parts) != 3 {
		t.Fatalf("PartitionK returned %d sets, want 3", len(parts))
	}
	sets := make([][]robust.FaultConditions, 3)
	off := 0
	for s := range parts {
		sets[s] = fcs[off : off+len(parts[s])]
		off += len(parts[s])
	}
	res := EnrichK(c, sets, Config{Seed: 8})
	if len(res.DetectedCounts) != 3 {
		t.Fatalf("DetectedCounts = %v", res.DetectedCounts)
	}
	if res.DetectedCounts[0] == 0 {
		t.Error("primary set must have detections")
	}
	// Re-simulate for consistency.
	all := append(append(append([]robust.FaultConditions(nil), sets[0]...), sets[1]...), sets[2]...)
	resim := faultsim.Run(c, res.Tests, all)
	idx := 0
	for s := range sets {
		for i := range sets[s] {
			if (resim[idx] >= 0) != res.Detected[s][i] {
				t.Errorf("set %d fault %d: reported %v, resim %v",
					s, i, res.Detected[s][i], resim[idx] >= 0)
			}
			idx++
		}
	}
	t.Logf("3-set enrichment: %d tests, detected %v of sizes [%d %d %d]",
		len(res.Tests), res.DetectedCounts, len(sets[0]), len(sets[1]), len(sets[2]))
	// Recorded once: any change to the generated tests fails here.
	const want = "45 [223 126 161] 4751c201acf5771358530f9dd90bd52d82593ee3e65411b952604545941db2ec"
	if got := fmt.Sprintf("%d %v %s", len(res.Tests), res.DetectedCounts, testsDigest(res.Tests)); got != want {
		t.Errorf("3-set enrichment: got %s, want %s", got, want)
	}
}

// testsDigest is the SHA-256 of the newline-joined test strings.
func testsDigest(tests []circuit.TwoPattern) string {
	lines := make([]string, len(tests))
	for i := range tests {
		lines[i] = tests[i].String()
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func TestEnrichKMatchesEnrich(t *testing.T) {
	// Enrich is defined as the k=2 case; both entry points must agree
	// exactly for equal seeds.
	c := synth.MustGenerate(synth.BenchmarkProfiles["b03"])
	fcs := screened(t, c, 800)
	if len(fcs) < 40 {
		t.Skipf("too few faults: %d", len(fcs))
	}
	half := len(fcs) / 2
	p0, p1 := fcs[:half], fcs[half:]
	a := Enrich(c, p0, p1, Config{Seed: 12})
	b := EnrichK(c, [][]robust.FaultConditions{p0, p1}, Config{Seed: 12})
	if len(a.Tests) != len(b.Tests) ||
		a.DetectedP0Count != b.DetectedCounts[0] ||
		a.DetectedP1Count != b.DetectedCounts[1] {
		t.Fatalf("Enrich and EnrichK(k=2) diverge: %d/%d/%d vs %d/%d/%d",
			len(a.Tests), a.DetectedP0Count, a.DetectedP1Count,
			len(b.Tests), b.DetectedCounts[0], b.DetectedCounts[1])
	}

	// k = 1: enrichment over one set is the basic procedure under the
	// value-based heuristic.
	g := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 12})
	k := EnrichK(c, [][]robust.FaultConditions{fcs}, Config{Seed: 12})
	if len(k.Detected) != 1 || len(k.DetectedCounts) != 1 {
		t.Fatalf("EnrichK(k=1) returned %d detection sets", len(k.Detected))
	}
	for _, f := range []struct {
		name     string
		gen, enr any
	}{
		{"Tests", g.Tests, k.Tests},
		{"Detected", g.Detected, k.Detected[0]},
		{"DetectedCount", g.DetectedCount, k.DetectedCounts[0]},
		{"Work", g.Work, k.Work},
	} {
		if !reflect.DeepEqual(f.gen, f.enr) {
			t.Errorf("EnrichK(k=1) and Generate diverge on %s:\n%v\n%v", f.name, f.gen, f.enr)
		}
	}
}
