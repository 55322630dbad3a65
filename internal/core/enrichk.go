package core

import (
	"context"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/justify"
	"repro/internal/robust"
)

// EnrichKResult reports a run of the generalized enrichment procedure
// over k target sets.
type EnrichKResult struct {
	Tests []circuit.TwoPattern
	// Detected[s][i] reports detection of fault i of set s.
	Detected [][]bool
	// DetectedCounts[s] is the number of detected faults of set s.
	DetectedCounts                                   []int
	PrimaryAborts                                    int
	SecondaryAccepts, SecondaryRejects, CheapAccepts int
	// SecondaryAcceptsBySet / SecondaryRejectsBySet split the
	// secondary outcomes by the target set the candidate came from
	// (index s corresponds to sets[s]).
	SecondaryAcceptsBySet, SecondaryRejectsBySet []int
	// RegenPerTest[t] counts the justification regenerations of test
	// t (non-cheap secondary accepts; see core.Result.RegenPerTest).
	RegenPerTest []int
	Elapsed      time.Duration
	JustifyStats justify.Stats
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
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Heuristic == Uncompacted {
		cfg.Heuristic = ValueBased
	}
	start := time.Now() //lint:telemetry feeds EnrichKResult.Elapsed only, never a generation decision
	var all []robust.FaultConditions
	setOf := make([]int, 0)
	for s, set := range sets {
		all = append(all, set...)
		for range set {
			setOf = append(setOf, s)
		}
	}
	g := newGenerator(c, all, cfg)
	g.ctx = ctx
	res := &Result{}
	for !g.canceled() {
		pi := g.pickPrimarySet(setOf, 0)
		if pi < 0 {
			break
		}
		g.tried[pi] = true
		test, cube, ok := g.justifyFault(pi, nil)
		if !ok {
			res.PrimaryAborts++
			continue
		}
		test = g.compactTest(ctx, pi, test, cube, res, setOf, len(sets))
		res.Tests = append(res.Tests, test)
		g.simDrop(ctx, test)
	}
	res.ensureSets(len(sets))
	out := &EnrichKResult{
		Tests:                 res.Tests,
		Detected:              make([][]bool, len(sets)),
		DetectedCounts:        make([]int, len(sets)),
		PrimaryAborts:         res.PrimaryAborts,
		SecondaryAccepts:      res.SecondaryAccepts,
		SecondaryRejects:      res.SecondaryRejects,
		CheapAccepts:          res.CheapAccepts,
		SecondaryAcceptsBySet: res.SecondaryAcceptsBySet,
		SecondaryRejectsBySet: res.SecondaryRejectsBySet,
		RegenPerTest:          res.RegenPerTest,
		//lint:telemetry wall-clock report, not part of the digest
		Elapsed:      time.Since(start),
		JustifyStats: g.just.stats(),
	}
	idx := 0
	for s, set := range sets {
		out.Detected[s] = make([]bool, len(set))
		for i := range set {
			out.Detected[s][i] = g.detected[idx]
			if g.detected[idx] {
				out.DetectedCounts[s]++
			}
			idx++
		}
	}
	return out, ctx.Err()
}

// pickPrimarySet picks the next primary from the given set.
func (g *generator) pickPrimarySet(setOf []int, want int) int {
	for _, i := range g.order {
		if setOf[i] != want || g.detected[i] || g.tried[i] {
			continue
		}
		return i
	}
	return -1
}

// addSecondariesPhased runs the secondary loop over k phases.
func (g *generator) addSecondariesPhased(primary int, test circuit.TwoPattern, cube robust.Cube, res *Result, setOf []int, k int) circuit.TwoPattern {
	sim := test.Simulate(g.c)
	res.ensureSets(k)
	for phase := 0; phase < k; phase++ {
		cand := g.candidatesSet(primary, setOf, phase)
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

// candidatesSet lists the secondary candidates of one set in g.order,
// reusing the scratch buffer g.cand.
func (g *generator) candidatesSet(primary int, setOf []int, want int) []int {
	out := g.cand[:0]
	for _, i := range g.order {
		if i == primary || g.detected[i] || setOf[i] != want {
			continue
		}
		out = append(out, i)
	}
	g.cand = out
	return out
}
