// Package perfreg is the performance-regression harness behind
// cmd/pdfbench and `make bench` / `make bench-check`: it runs a fixed
// suite of generation and enrichment workloads through the job engine,
// records wall time, per-stage span durations (from the engine's
// per-job obs trace), allocations, test-set size and P0/P1 coverage
// into a schema-versioned snapshot (the committed BENCH_<date>.json
// files), and compares a fresh run against a committed baseline with
// noise-aware thresholds so CI can fail on real slowdowns without
// flaking on jitter.
//
// Two classes of metric get two different gates:
//
//   - Timing and allocation are noisy: the comparison uses the
//     minimum over reps (the least-disturbed run) and flags only
//     changes past both a fractional threshold and an absolute floor.
//   - Test-set size and fault coverage are deterministic for a fixed
//     seed: any growth in tests or drop in detection is a regression,
//     with no tolerance.
package perfreg

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// SchemaVersion stamps every snapshot; Compare refuses to diff
// mismatched versions rather than mis-read fields.
const SchemaVersion = 1

// Case is one fixed workload of the suite.
type Case struct {
	// Name identifies the case across snapshots; comparisons match on
	// it, so renaming a case resets its history.
	Name      string      `json:"name"`
	Kind      engine.Kind `json:"kind"`
	Circuit   string      `json:"circuit"`
	NP        int         `json:"np,omitempty"`
	NP0       int         `json:"np0,omitempty"`
	Seed      int64       `json:"seed"`
	Heuristic string      `json:"heuristic,omitempty"`
	Collapse  bool        `json:"collapse,omitempty"`
	UseBnB    bool        `json:"bnb,omitempty"`
	// Traced submits the job under a sampled W3C trace context, the way
	// a coordinator-routed submission arrives: the job adopts the remote
	// identity and its completion feeds the tail-retention buffer and
	// histogram exemplars. The case exists to keep that bookkeeping
	// visible to the regression gate.
	Traced bool `json:"traced,omitempty"`
}

// DefaultSuite is the benchmark suite of `make bench`: the real c17
// circuit plus synthetic stand-ins from internal/synth, across the
// generate and enrich procedures and both justification backends.
// Budgets are sized so the whole suite at 3 reps stays in seconds.
func DefaultSuite() []Case {
	return []Case{
		{Name: "c17-generate", Kind: engine.KindGenerate, Circuit: "c17", NP0: 4, Seed: 1},
		{Name: "c17-enrich-collapse", Kind: engine.KindEnrich, Circuit: "c17", NP0: 4, Seed: 1, Collapse: true},
		{Name: "s641-enrich", Kind: engine.KindEnrich, Circuit: "s641", NP: 1000, NP0: 200, Seed: 1},
		{Name: "s953-enrich", Kind: engine.KindEnrich, Circuit: "s953", NP: 1000, NP0: 200, Seed: 1},
		{Name: "b09-generate", Kind: engine.KindGenerate, Circuit: "b09", NP: 500, NP0: 30, Seed: 1},
		{Name: "s1196-enrich-bnb", Kind: engine.KindEnrich, Circuit: "s1196", NP: 1000, NP0: 10, Seed: 1, UseBnB: true},
		{Name: "c17-generate-traced", Kind: engine.KindGenerate, Circuit: "c17", NP0: 4, Seed: 1, Traced: true},
	}
}

// CaseResult aggregates one case's reps.
type CaseResult struct {
	Name    string      `json:"name"`
	Kind    engine.Kind `json:"kind"`
	Circuit string      `json:"circuit"`
	Reps    int         `json:"reps"`

	// Noisy metrics: minimum and mean over reps. The minimum is the
	// comparison input — it is the run least disturbed by scheduling.
	WallSecondsMin  float64 `json:"wall_seconds_min"`
	WallSecondsMean float64 `json:"wall_seconds_mean"`
	AllocBytesMin   uint64  `json:"alloc_bytes_min"`

	// StageSeconds is the per-stage span time of the fastest rep,
	// keyed by span name (prepare, generation, simulation, ...),
	// summed over same-named spans within the job trace.
	StageSeconds map[string]float64 `json:"stage_seconds"`

	// Deterministic outcome metrics: identical across reps for a fixed
	// seed (Run fails if they are not).
	Tests         int `json:"tests"`
	PrimaryAborts int `json:"primary_aborts"`
	P0Detected    int `json:"p0_detected"`
	P0Targets     int `json:"p0_targets"`
	P1Detected    int `json:"p1_detected"`
	P1Targets     int `json:"p1_targets"`
}

// Snapshot is the BENCH_<date>.json payload.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	Reps          int    `json:"reps"`

	Cases []CaseResult `json:"cases"`
}

// Options configures Run.
type Options struct {
	// Reps is the repetition count per case; <= 0 means 3.
	Reps int
	// Log, when set, receives one progress line per rep.
	Log io.Writer
}

// Run executes the suite and returns the aggregated snapshot. Every
// rep runs the full pipeline (the result cache is bypassed) on a
// single-worker engine, so stage timings are never overlapped by a
// concurrent case. Deterministic outcome metrics must agree across
// reps; a mismatch is an error, because it means the procedures lost
// seed-determinism — itself a regression no threshold should absorb.
func Run(ctx context.Context, suite []Case, opts Options) (*Snapshot, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 3
	}
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()

	snap := &Snapshot{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Reps:          reps,
	}
	for _, c := range suite {
		cr, err := runCase(ctx, e, c, reps, opts.Log)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
		snap.Cases = append(snap.Cases, *cr)
	}
	return snap, nil
}

func runCase(ctx context.Context, e *engine.Engine, c Case, reps int, log io.Writer) (*CaseResult, error) {
	spec := engine.Spec{
		Kind: c.Kind, Circuit: c.Circuit, NP: c.NP, NP0: c.NP0, Seed: c.Seed,
		Heuristic: c.Heuristic, Collapse: c.Collapse, UseBnB: c.UseBnB,
		NoCache: true,
	}
	cr := &CaseResult{Name: c.Name, Kind: c.Kind, Circuit: c.Circuit, Reps: reps}
	runCtx := ctx
	if c.Traced {
		runCtx = obs.WithTraceContext(ctx, obs.NewTraceContext(true))
	}
	var wallSum float64
	var ms runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		runtime.ReadMemStats(&ms)
		allocBefore := ms.TotalAlloc
		start := time.Now()
		v, err := e.RunJob(runCtx, spec)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		if v.Status != engine.StatusDone {
			return nil, fmt.Errorf("rep %d finished %s: %s", rep, v.Status, v.Error)
		}
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc - allocBefore

		wallSum += wall
		if rep == 0 || wall < cr.WallSecondsMin {
			cr.WallSecondsMin = wall
			cr.StageSeconds = stageSeconds(v.Trace)
		}
		if rep == 0 || alloc < cr.AllocBytesMin {
			cr.AllocBytesMin = alloc
		}

		r := v.Result
		if r == nil {
			return nil, fmt.Errorf("rep %d returned no result", rep)
		}
		if rep == 0 {
			cr.Tests = r.TestCount
			cr.PrimaryAborts = r.PrimaryAborts
			cr.P0Detected, cr.P0Targets = r.P0Detected, r.P0Targets
			cr.P1Detected, cr.P1Targets = r.P1Detected, r.P1Targets
		} else if cr.Tests != r.TestCount || cr.P0Detected != r.P0Detected || cr.P1Detected != r.P1Detected {
			return nil, fmt.Errorf("rep %d lost determinism: tests %d/%d, p0 %d/%d, p1 %d/%d",
				rep, r.TestCount, cr.Tests, r.P0Detected, cr.P0Detected, r.P1Detected, cr.P1Detected)
		}
		if log != nil {
			fmt.Fprintf(log, "%-22s rep %d/%d  %8.1f ms  %5d tests  p0 %d/%d  p1 %d/%d\n",
				c.Name, rep+1, reps, wall*1000, r.TestCount,
				r.P0Detected, r.P0Targets, r.P1Detected, r.P1Targets)
		}
	}
	cr.WallSecondsMean = wallSum / float64(reps)
	return cr, nil
}

// stageSeconds folds a job's span timeline into per-name totals in
// seconds. The structural spans (job, queued) are skipped: they
// measure the engine, not the pipeline.
func stageSeconds(tv *obs.TraceView) map[string]float64 {
	out := make(map[string]float64)
	if tv == nil {
		return out
	}
	for _, s := range tv.Spans {
		switch s.Name {
		case "job", "queued":
			continue
		}
		if s.DurMS < 0 {
			continue
		}
		out[s.Name] += s.DurMS / 1000
	}
	return out
}

// WriteFile marshals the snapshot to path (indented, trailing
// newline), creating or truncating it.
func (s *Snapshot) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a snapshot and validates its schema version.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: snapshot schema v%d, this binary speaks v%d", path, s.SchemaVersion, SchemaVersion)
	}
	return &s, nil
}
