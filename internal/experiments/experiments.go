// Package experiments regenerates every table of the DATE 2002 paper's
// evaluation on the benchmark stand-in circuits (see DESIGN.md for the
// substitution rationale):
//
//	Table 1 — the budgeted path enumeration walk-through on s27;
//	Table 2 — the path length profile N_p(L_i) of s1423;
//	Table 3 — P0 faults detected by the basic procedure, 4 heuristics;
//	Table 4 — test counts of the basic procedure, 4 heuristics;
//	Table 5 — P0∪P1 faults accidentally detected by the basic test sets;
//	Table 6 — the enrichment procedure with P0 and P1;
//	Table 7 — run time ratio enrichment / basic (value-based).
//
// Absolute values differ from the paper (synthetic stand-in circuits,
// scaled budgets); the shapes the paper argues from are asserted in
// EXPERIMENTS.md and the test suite.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
)

// Params scales the experiment suite. The paper uses NP=10000 and
// NP0=1000; the defaults are scaled to the stand-in circuits so the
// full suite runs in minutes.
type Params struct {
	NP   int   // N_P: fault budget for path enumeration
	NP0  int   // N_P0: minimum size of the first target set
	Seed int64 // randomization seed for all procedures
}

// DefaultParams returns the scaled defaults.
func DefaultParams() Params {
	return Params{NP: 2000, NP0: 300, Seed: 1}
}

// CircuitData is the prepared input of the generation experiments: the
// circuit, the screened fault sets and the partition index.
type CircuitData struct {
	Name       string
	Circuit    *circuit.Circuit
	I0         int
	P0, P1     []robust.FaultConditions
	Eliminated int // undetectable faults removed from P
	Enumerated int // faults enumerated into P
}

// All returns P0 followed by P1.
func (d *CircuitData) All() []robust.FaultConditions {
	all := make([]robust.FaultConditions, 0, len(d.P0)+len(d.P1))
	all = append(all, d.P0...)
	return append(all, d.P1...)
}

// LoadCircuit returns the named circuit: "s27" and "c17" are the
// embedded benchmark netlists, every other name is a synthetic
// stand-in profile.
func LoadCircuit(name string) (*circuit.Circuit, error) {
	switch name {
	case "s27":
		return bench.S27(), nil
	case "c17":
		return bench.C17(), nil
	}
	return synth.Benchmark(name)
}

// Prepare enumerates, screens and partitions the faults of a circuit.
func Prepare(name string, p Params) (*CircuitData, error) {
	c, err := LoadCircuit(name)
	if err != nil {
		return nil, err
	}
	return PrepareCircuit(c, p)
}

// PrepareCircuit is Prepare for an already-built circuit.
func PrepareCircuit(c *circuit.Circuit, p Params) (*CircuitData, error) {
	return PrepareCircuitCtx(context.Background(), c, p)
}

// PrepareCircuitCtx is PrepareCircuit with an observability context:
// when ctx carries an obs.Trace (the engine's per-job timeline), the
// three preparation stages — path enumeration, robustness screening,
// and the P0/P1 partition — are recorded as child spans. With a plain
// context the spans are free no-ops.
func PrepareCircuitCtx(ctx context.Context, c *circuit.Circuit, p Params) (*CircuitData, error) {
	_, espan := obs.StartSpan(ctx, "pathenum", obs.Int("budget", p.NP))
	res, err := pathenum.Enumerate(c, pathenum.Config{
		MaxFaults: p.NP,
		Mode:      pathenum.DistancePruned,
	})
	if err != nil {
		espan.End()
		return nil, fmt.Errorf("experiments: %s: %v", c.Name, err)
	}
	espan.End(obs.Int("enumerated", len(res.Faults)))

	_, sspan := obs.StartSpan(ctx, "screen", obs.Int("faults", len(res.Faults)))
	kept, eliminated := robust.Screen(c, res.Faults)
	sspan.End(obs.Int("kept", len(kept)), obs.Int("eliminated", eliminated))

	_, pspan := obs.StartSpan(ctx, "partition", obs.Int("np0", p.NP0))
	raw := make([]faults.Fault, len(kept))
	for i := range kept {
		raw[i] = kept[i].Fault
	}
	// Partition preserves order (kept is sorted by decreasing length),
	// so P0 is a prefix of kept.
	p0f, _, i0 := faults.Partition(raw, p.NP0)
	d := &CircuitData{
		Name:       c.Name,
		Circuit:    c,
		I0:         i0,
		P0:         kept[:len(p0f)],
		P1:         kept[len(p0f):],
		Eliminated: eliminated,
		Enumerated: len(res.Faults),
	}
	pspan.End(obs.Int("p0", len(d.P0)), obs.Int("p1", len(d.P1)))
	return d, nil
}

// Table1Result summarizes the budgeted moderate enumeration of s27
// (the walk-through of Table 1).
type Table1Result struct {
	FinalPaths      int
	MinLen, MaxLen  int
	EvictedComplete int
	BudgetHits      int
	Paths           []string // formatted final paths
}

// Table1 reruns the paper's s27 walk-through: moderate enumeration
// with a budget of 20 paths (40 faults).
func Table1() (*Table1Result, error) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 40, Mode: pathenum.Moderate})
	if err != nil {
		return nil, err
	}
	out := &Table1Result{
		FinalPaths:      len(res.Faults) / 2,
		MinLen:          1 << 30,
		EvictedComplete: res.Stats.EvictedComplete,
		BudgetHits:      res.Stats.BudgetHits,
	}
	seen := map[string]bool{}
	for i := range res.Faults {
		f := &res.Faults[i]
		if f.Length < out.MinLen {
			out.MinLen = f.Length
		}
		if f.Length > out.MaxLen {
			out.MaxLen = f.Length
		}
		s := c.PathString(f.Path)
		if !seen[s] {
			seen[s] = true
			out.Paths = append(out.Paths, s)
		}
	}
	return out, nil
}

// Table2 returns the top-k rows of the length profile of a circuit's
// enumerated fault set: i, L_i and N_p(L_i), as in Table 2.
func Table2(name string, p Params, topK int) ([]faults.LengthCount, error) {
	c, err := LoadCircuit(name)
	if err != nil {
		return nil, err
	}
	res, err := pathenum.Enumerate(c, pathenum.Config{
		MaxFaults: p.NP,
		Mode:      pathenum.DistancePruned,
	})
	if err != nil {
		return nil, err
	}
	prof := faults.Profile(res.Faults)
	if topK > 0 && len(prof) > topK {
		prof = prof[:topK]
	}
	return prof, nil
}

// BasicRow is one circuit's row of Tables 3, 4 and 5: the basic
// procedure under each of the four heuristics.
type BasicRow struct {
	Circuit  string
	I0       int
	P0Faults int
	// Indexed by core.Heuristic.
	Detected     [4]int
	Tests        [4]int
	P0P1Faults   int
	P0P1Detected [4]int
	Elapsed      [4]time.Duration
}

// BasicTable runs the basic procedure with all four heuristics on a
// prepared circuit, producing the circuit's rows of Tables 3-5.
func BasicTable(d *CircuitData, p Params) (*BasicRow, error) {
	row := &BasicRow{
		Circuit:    d.Name,
		I0:         d.I0,
		P0Faults:   len(d.P0),
		P0P1Faults: len(d.P0) + len(d.P1),
	}
	// Table 5 grades every heuristic's test set on P0 ∪ P1, compiled
	// once.
	prog := bitsim.Compile(d.Circuit, d.All())
	for _, h := range core.Heuristics {
		res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: h, Seed: p.Seed})
		row.Detected[h] = res.DetectedCount
		row.Tests[h] = len(res.Tests)
		row.Elapsed[h] = res.Elapsed
		first, err := prog.Run(context.Background(), res.Tests)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		row.P0P1Detected[h] = bitsim.Detected(first)
	}
	return row, nil
}

// EnrichRow is one circuit's row of Table 6 plus the Table 7 ratio.
type EnrichRow struct {
	Circuit     string
	I0          int
	P0Total     int
	P0Detected  int
	AllTotal    int
	AllDetected int
	Tests       int
	Elapsed     time.Duration
	// BasicElapsed is the value-based basic run used for the Table 7
	// ratio; Ratio is Elapsed / BasicElapsed.
	BasicElapsed time.Duration
	Ratio        float64
}

// EnrichTable runs the enrichment procedure on a prepared circuit and
// the value-based basic procedure for the Table 7 run time ratio.
func EnrichTable(d *CircuitData, p Params) *EnrichRow {
	basic := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: p.Seed})
	er := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: p.Seed})
	row := &EnrichRow{
		Circuit:      d.Name,
		I0:           d.I0,
		P0Total:      len(d.P0),
		P0Detected:   er.DetectedP0Count,
		AllTotal:     len(d.P0) + len(d.P1),
		AllDetected:  er.DetectedP0Count + er.DetectedP1Count,
		Tests:        len(er.Tests),
		Elapsed:      er.Elapsed,
		BasicElapsed: basic.Elapsed,
	}
	if basic.Elapsed > 0 {
		row.Ratio = float64(er.Elapsed) / float64(basic.Elapsed)
	}
	return row
}
