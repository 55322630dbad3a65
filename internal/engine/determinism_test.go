package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// The determinism satellite: a run on a parallel job pool must produce
// a byte-identical report to the serial pool, for both job kinds, on
// s27 and c17.
func TestEngineParallelSerialGolden(t *testing.T) {
	for _, circuitName := range []string{"s27", "c17"} {
		for _, kind := range []Kind{KindGenerate, KindEnrich} {
			t.Run(circuitName+"/"+string(kind), func(t *testing.T) {
				spec := Spec{Kind: kind, Circuit: circuitName, NP: 0, NP0: 10, Seed: 1}
				golden := runReport(t, spec, Config{Workers: 1})
				report := runReport(t, spec, Config{Workers: 4})
				if !bytes.Equal(golden, report) {
					t.Errorf("report differs from serial:\nserial:   %s\nparallel: %s", golden, report)
				}
			})
		}
	}
}

// runReport runs one job on a fresh engine and returns the marshaled
// result (the "report": no wall-clock fields, so equal computations
// are byte-identical).
func runReport(t *testing.T, spec Spec, cfg Config) []byte {
	t.Helper()
	e := New(cfg)
	defer e.Close()
	v, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("status %s: %s", v.Status, v.Error)
	}
	b, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The engine's serial path must agree with a direct core run — the
// orchestration layer adds no drift.
func TestEngineMatchesDirectCoreRun(t *testing.T) {
	spec := Spec{Kind: KindEnrich, Circuit: "s27", NP: 0, NP0: 10, Seed: 1}
	e := New(Config{Workers: 1})
	defer e.Close()
	v, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := experiments.Prepare("s27", experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: 1})
	r := v.Result
	if r.P0Detected != er.DetectedP0Count || r.P1Detected != er.DetectedP1Count ||
		r.TestCount != len(er.Tests) {
		t.Errorf("engine result diverges from direct core run: engine %+v, core %d/%d tests %d",
			r, er.DetectedP0Count, er.DetectedP1Count, len(er.Tests))
	}
	for i, tp := range er.Tests {
		if r.Tests[i] != tp.String() {
			t.Fatalf("test %d differs: %q vs %q", i, r.Tests[i], tp.String())
		}
	}
}

func TestCircuitDigestStability(t *testing.T) {
	c1, err := experiments.LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := experiments.LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	if CircuitDigest(c1) != CircuitDigest(c2) {
		t.Error("equal circuits must have equal digests")
	}
	other, err := experiments.LoadCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	if CircuitDigest(c1) == CircuitDigest(other) {
		t.Error("different circuits must have different digests")
	}
}
