package report

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
)

func TestBuildAndRender(t *testing.T) {
	c := bench.S27()
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fcs := d.All()
	er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
	r, err := Build(c, er.Tests, fcs)
	if err != nil {
		t.Fatal(err)
	}

	if r.Faults != len(fcs) {
		t.Errorf("Faults = %d, want %d", r.Faults, len(fcs))
	}
	if r.Detected != er.DetectedP0Count+er.DetectedP1Count {
		t.Errorf("Detected = %d, want %d", r.Detected, er.DetectedP0Count+er.DetectedP1Count)
	}
	// Bucket totals must add up.
	totLen, detLen := 0, 0
	for i, b := range r.ByLength {
		totLen += b.Total
		detLen += b.Detected
		if b.Detected > b.Total {
			t.Fatalf("bucket %d over-detected", i)
		}
		if i > 0 && b.Length >= r.ByLength[i-1].Length {
			t.Fatal("length buckets not sorted descending")
		}
	}
	if totLen != r.Faults || detLen != r.Detected {
		t.Errorf("length buckets sum to %d/%d, want %d/%d", detLen, totLen, r.Detected, r.Faults)
	}
	totPO, detPO := 0, 0
	for _, b := range r.ByPO {
		totPO += b.Total
		detPO += b.Detected
	}
	if totPO != r.Faults || detPO != r.Detected {
		t.Errorf("PO buckets sum to %d/%d, want %d/%d", detPO, totPO, r.Detected, r.Faults)
	}
	if r.TestStats.Tests != len(er.Tests) || r.TestStats.DetectedPerTest <= 0 {
		t.Errorf("test stats wrong: %+v", r.TestStats)
	}

	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{"coverage:", "by path length:", "by observation point:", "G17"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBuildEmptyTests(t *testing.T) {
	c := bench.S27()
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(c, nil, d.All())
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != 0 || r.TestStats.Tests != 0 {
		t.Errorf("empty test set report wrong: %+v", r)
	}
	var sb strings.Builder
	r.Render(&sb) // must not panic
}
