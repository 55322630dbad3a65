package core

import (
	"context"
	"math"

	"repro/internal/circuit"
	"repro/internal/robust"
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
	res.ensureSets(len(sets))
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
// target set.
func (g *generator) addSecondariesPhased(primary int, test circuit.TwoPattern, cube robust.Cube, res *Result) circuit.TwoPattern {
	sim := test.Simulate(g.c)
	res.ensureSets(g.k)
	for phase := 0; phase < g.k; phase++ {
		cand := g.candidates(primary, phase)
		// delta[i] is the best nΔ of cand[i] against cube, recomputed
		// only when cube changes.
		delta, stale := g.delta[:0], true
		for len(cand) > 0 {
			if g.canceled() {
				return test
			}
			pick := 0
			if g.cfg.Heuristic == ValueBased {
				if stale {
					delta, stale = g.deltas(cand, &cube, delta[:0]), false
				}
				pick = firstMin(delta)
				delta = append(delta[:pick], delta[pick+1:]...)
			}
			fi := cand[pick]
			cand = append(cand[:pick], cand[pick+1:]...)
			if g.detected[fi] {
				continue
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
				cube, stale = newCube, true
				if !cheap {
					test = newTest
					sim = test.Simulate(g.c)
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
		g.delta = delta
	}
	return test
}

// deltas appends to out, for each candidate, the fewest new value
// positions any of its alternatives adds to the cube (nΔ, Section 2.2).
func (g *generator) deltas(cand []int, cube *robust.Cube, out []int) []int {
	for _, fi := range cand {
		best := math.MaxInt
		for a := range g.faults[fi].Alts {
			best = min(best, cube.NewlySpecified(&g.faults[fi].Alts[a]))
		}
		out = append(out, best)
	}
	return out
}

// firstMin returns the first index of the smallest element.
func firstMin(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
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
