package core

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// EnrichResult reports a run of the enrichment procedure: the run's
// Result (Detected numbers P0's faults, then P1's) viewed per set.
type EnrichResult struct {
	Result
	// DetectedP0 / DetectedP1 are the per-fault detection flags of the
	// two target sets, subslices of Result.Detected.
	DetectedP0, DetectedP1           []bool
	DetectedP0Count, DetectedP1Count int
}

// Enrich runs the test enrichment procedure of Section 3.2: primaries
// and first-phase secondaries from p0; second-phase secondaries from
// p1. It always uses the value-based secondary ordering unless the
// config selects another compaction heuristic. Enrich is the k = 2
// case of EnrichK, the configuration the paper evaluates.
func Enrich(c *circuit.Circuit, p0, p1 []robust.FaultConditions, cfg Config) *EnrichResult {
	res, _ := EnrichCtx(context.Background(), c, p0, p1, cfg)
	return res
}

// EnrichCtx is Enrich under a context; see GenerateCtx for the
// cancellation contract.
func EnrichCtx(ctx context.Context, c *circuit.Circuit, p0, p1 []robust.FaultConditions, cfg Config) (*EnrichResult, error) {
	k, err := EnrichKCtx(ctx, c, [][]robust.FaultConditions{p0, p1}, cfg)
	return &EnrichResult{
		Result:          k.Result,
		DetectedP0:      k.Detected[0],
		DetectedP1:      k.Detected[1],
		DetectedP0Count: k.DetectedCounts[0],
		DetectedP1Count: k.DetectedCounts[1],
	}, err
}

// EnrichKResult reports a run of the generalized enrichment procedure
// over k target sets: the run's Result viewed per set.
type EnrichKResult struct {
	Result
	// Detected[s][i] reports detection of fault i of set s; Detected[s]
	// is a subslice of Result.Detected.
	Detected [][]bool
	// DetectedCounts[s] is the number of detected faults of set s.
	DetectedCounts []int
}

// EnrichK generalizes the enrichment procedure to any number of target
// sets, in decreasing criticality order: primaries come only from
// sets[0]; secondary targets are taken from sets[0], then sets[1], and
// so on — a set is considered only after every fault of the more
// critical sets has been considered for the current test. The paper
// notes this generalization in Section 3.1 ("it is possible to
// partition P into a larger number of subsets") and evaluates k = 2.
//
//lint:ignore testonly the k-set generalization stays for a k = 3 ablation row; BenchmarkAblationMultiSubset runs it
func EnrichK(c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) *EnrichKResult {
	res, _ := EnrichKCtx(context.Background(), c, sets, cfg)
	return res
}

// EnrichKCtx is EnrichK under a context: the run stops promptly when
// ctx is canceled, returning the partial result together with
// ctx.Err().
func EnrichKCtx(ctx context.Context, c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) (*EnrichKResult, error) {
	if cfg.Heuristic == Uncompacted {
		cfg.Heuristic = ValueBased
	}
	res, err := run(ctx, c, sets, cfg)
	out := &EnrichKResult{
		Result:         *res,
		Detected:       make([][]bool, len(sets)),
		DetectedCounts: make([]int, len(sets)),
	}
	off := 0
	for s, set := range sets {
		end := off + len(set)
		out.Detected[s] = res.Detected[off:end:end]
		for _, d := range out.Detected[s] {
			if d {
				out.DetectedCounts[s]++
			}
		}
		off = end
	}
	return out, err
}

// addSecondariesPhased runs the secondary loop over one phase per
// target set. It returns the compacted test and its simulation, in the
// generator's buffer, or a nil simulation when the run was canceled.
func (g *generator) addSecondariesPhased(primary int, test circuit.TwoPattern, cube robust.Cube, res *Result) (circuit.TwoPattern, []tval.Triple) {
	sim := g.tsim.Simulate(test.P1, test.P3)
	if g.nd != nil {
		g.nd.startTest(&cube)
	}
	for phase := 0; phase < g.k; phase++ {
		cand := g.candidates(primary, phase)
		if g.nd != nil {
			g.nd.startPhase(cand)
		}
		for next := range cand {
			if g.canceled() {
				return test, nil
			}
			fi := cand[next]
			if g.nd != nil {
				fi = g.nd.pop()
			}
			ok, cheap := false, false
			var newTest circuit.TwoPattern
			var newCube robust.Cube
			if !g.cfg.DisableCheapAccept {
				for a := range g.faults[fi].Alts {
					alt := &g.faults[fi].Alts[a]
					if alt.CoveredBy(sim) {
						if m, mok := cube.Merge(alt); mok {
							newCube, newTest, ok, cheap = m, test, true, true
							// The test's simulation covers cube ∪ alt and
							// every implication holds in it, so no
							// implication can conflict.
							if g.im != nil && !g.im.Extend(alt) {
								panic("core: implications of a covered cube conflict")
							}
						}
						break
					}
				}
			}
			if !ok {
				newTest, newCube, ok = g.justifyFault(fi, &cube)
			}
			if ok {
				if g.nd != nil {
					g.nd.merged(&cube, &newCube)
				}
				cube = newCube
				if !cheap {
					test = newTest
					sim = g.tsim.Simulate(test.P1, test.P3)
				}
				res.SecondaryAccepts++
				res.SecondaryAcceptsBySet[phase]++
				if cheap {
					res.CheapAccepts++
				}
			} else {
				res.SecondaryRejects++
				res.SecondaryRejectsBySet[phase]++
			}
		}
	}
	return test, sim
}

// candidates lists the secondary candidates of one set in g.order,
// reusing the scratch buffer g.cand.
func (g *generator) candidates(primary, set int) []int {
	out := g.cand[:0]
	for _, i := range g.order {
		if i == primary || g.detected[i] || g.setOf[i] != set {
			continue
		}
		out = append(out, i)
	}
	g.cand = out
	return out
}
