package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalPaths >= 20 {
		t.Errorf("final paths %d must stay under the 20-path budget", r.FinalPaths)
	}
	if r.MaxLen != 10 {
		t.Errorf("max length = %d, want 10", r.MaxLen)
	}
	if r.EvictedComplete == 0 || r.BudgetHits == 0 {
		t.Error("walk-through must hit the budget and evict short paths")
	}
	var buf bytes.Buffer
	RenderTable1(&buf, r)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("render output malformed")
	}
}

func TestTable2S1423StandIn(t *testing.T) {
	p := DefaultParams()
	prof, err := Table2("s1423", p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	// Paper Table 2 invariants: lengths strictly decreasing with i,
	// cumulative strictly increasing, first cumulative small.
	for i := 1; i < len(prof); i++ {
		if prof[i].L >= prof[i-1].L {
			t.Error("lengths must strictly decrease")
		}
		if prof[i].Cumulative <= prof[i-1].Cumulative {
			t.Error("cumulative counts must strictly increase")
		}
	}
	if prof[0].Cumulative > prof[len(prof)-1].Cumulative/2 {
		t.Logf("note: longest length class holds %d of %d faults",
			prof[0].Cumulative, prof[len(prof)-1].Cumulative)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, "s1423", prof)
	if !strings.Contains(buf.String(), "N_p(L_i)") {
		t.Error("render output malformed")
	}
}

func TestPrepareS27(t *testing.T) {
	p := Params{NP: 0, NP0: 10, Seed: 1}
	d, err := Prepare("s27", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.P0) < 10 {
		t.Errorf("|P0| = %d, want ≥ 10", len(d.P0))
	}
	if len(d.P0)+len(d.P1)+d.Eliminated != d.Enumerated {
		t.Errorf("fault accounting broken: %d + %d + %d != %d",
			len(d.P0), len(d.P1), d.Eliminated, d.Enumerated)
	}
	// P0 is the long prefix: lengths in P0 ≥ lengths in P1.
	if len(d.P1) > 0 {
		minP0 := d.P0[len(d.P0)-1].Fault.Length
		for i := range d.P1 {
			if d.P1[i].Fault.Length >= minP0 {
				t.Fatal("partition order broken")
			}
		}
	}
}

func TestLoadCircuitUnknown(t *testing.T) {
	if _, err := LoadCircuit("nonesuch"); err == nil {
		t.Error("unknown circuit must fail")
	}
}

func TestBasicAndEnrichRowsOnSmallCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := DefaultParams()
	d, err := Prepare("b09", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.P1) < 30 {
		t.Fatalf("b09 stand-in has degenerate P1 (%d faults); retune profile or budget", len(d.P1))
	}
	row, err := BasicTable(d, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("b09 basic: P0=%d detected=%v tests=%v elapsed=%v",
		row.P0Faults, row.Detected, row.Tests, row.Elapsed)

	// Table 3/4 shapes: compaction heuristics detect about as many
	// faults as uncompacted with clearly fewer tests.
	for _, h := range []int{1, 2, 3} {
		if row.Tests[h] >= row.Tests[0] {
			t.Errorf("heuristic %d: %d tests, uncompacted %d — no compaction",
				h, row.Tests[h], row.Tests[0])
		}
	}
	er := EnrichTable(d, p)
	t.Logf("b09 enrich: P0 %d/%d, all %d/%d, tests=%d, ratio=%.2f",
		er.P0Detected, er.P0Total, er.AllDetected, er.AllTotal, er.Tests, er.Ratio)

	// Table 6 shape: enrichment detects more of P0∪P1 than any basic
	// run's accidental detection.
	for h := 0; h < 4; h++ {
		if er.AllDetected <= row.P0P1Detected[h] {
			t.Errorf("enrichment %d ≤ basic heuristic %d accidental %d",
				er.AllDetected, h, row.P0P1Detected[h])
		}
	}
	// Test count close to the value-based basic run.
	if er.Tests > row.Tests[3]+row.Tests[3]/4+2 {
		t.Errorf("enrichment tests %d much larger than basic values %d",
			er.Tests, row.Tests[3])
	}
}
