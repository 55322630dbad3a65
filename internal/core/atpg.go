// Package core implements the paper's test generation procedures: the
// basic dynamic-compaction ATPG with primary and secondary target
// faults (Section 2.2) and the test enrichment procedure with multiple
// sets of target faults (Section 3.2).
//
// Every test starts from a primary target fault. Secondary target
// faults are added to the set P(t) one at a time; after each addition
// the justification procedure regenerates a test satisfying the union
// of the A(p) cubes of P(t) — the addition is accepted only if
// regeneration succeeds. Once a test is complete, all remaining target
// faults are fault simulated against it and detected faults are
// dropped.
//
// The enrichment procedure runs the same loop with two target sets:
// primaries come only from P0; secondaries come from P0 first and,
// only when P0 is exhausted, from P1. Faults in P1 are therefore
// detected without increasing the number of tests.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/tval"
)

// Heuristic selects the compaction heuristic of Section 2.2.
type Heuristic int

// The four procedures compared in Tables 3 and 4.
const (
	// Uncompacted generates one test per primary target fault, with no
	// secondary targets (fault dropping still applies).
	Uncompacted Heuristic = iota
	// Arbitrary picks primary and secondary targets in fault-list
	// order.
	Arbitrary
	// LengthBased picks primary and secondary targets longest path
	// first.
	LengthBased
	// ValueBased picks the primary longest first and each secondary to
	// minimize nΔ, the number of new values the test must satisfy.
	ValueBased
)

var heuristicNames = [...]string{"uncomp", "arbit", "length", "values"}

func (h Heuristic) String() string {
	if int(h) < len(heuristicNames) {
		return heuristicNames[h]
	}
	return "unknown"
}

// Heuristics lists all four in table order.
var Heuristics = []Heuristic{Uncompacted, Arbitrary, LengthBased, ValueBased}

// ParseHeuristic parses a heuristic name as printed by String.
func ParseHeuristic(s string) (Heuristic, error) {
	for _, h := range Heuristics {
		if h.String() == s {
			return h, nil
		}
	}
	return 0, fmt.Errorf("core: unknown heuristic %q (want uncomp, arbit, length or values)", s)
}

// Config parameterizes a test generation run.
type Config struct {
	// Heuristic is the compaction heuristic (the enrichment procedure
	// of Section 3.2 always uses ValueBased, as the paper selects).
	Heuristic Heuristic
	// Seed drives all random choices; equal seeds reproduce runs.
	Seed int64
	// DisableCheapAccept turns off the fast path that accepts a
	// secondary fault without regenerating the test when the current
	// test already covers the fault's conditions. The fast path never
	// changes which faults a finished test detects (such faults would
	// be dropped by the end-of-test fault simulation anyway); it only
	// saves justification work. Disable for ablation.
	DisableCheapAccept bool
	// Justify configures the underlying justifier; Seed is copied in.
	Justify justify.Config
	// UseBnB replaces the randomized simulation-based justification
	// with the complete branch-and-bound search, making results
	// independent of the seed (the paper: run-to-run variations "can
	// be eliminated by using a branch-and-bound procedure"). Note that
	// the Arbitrary heuristic still shuffles with the seed.
	UseBnB bool
	// BnB configures the branch-and-bound search when UseBnB is set.
	BnB justify.BnBConfig
}

// Result reports a run of the basic procedure over one target set.
type Result struct {
	Tests []circuit.TwoPattern
	// Detected[i] reports whether target fault i was detected.
	Detected []bool
	// DetectedCount is the number of detected target faults.
	DetectedCount int
	// PrimaryAborts counts primary targets whose justification failed.
	PrimaryAborts int
	// SecondaryAccepts / SecondaryRejects count secondary target
	// outcomes (CheapAccepts included in accepts).
	SecondaryAccepts, SecondaryRejects, CheapAccepts int
	// SecondaryAcceptsBySet / SecondaryRejectsBySet split the
	// secondary outcomes by the target set (phase) the candidate came
	// from: index s counts candidates of sets[s] in EnrichK terms
	// (Generate runs a single set, so only index 0 is populated).
	SecondaryAcceptsBySet, SecondaryRejectsBySet []int
	// RegenPerTest[t] counts the test regenerations of test t: each
	// accepted secondary whose conditions were not already covered
	// re-justifies the whole cube (cheap accepts regenerate nothing).
	// The paper's compaction cost argument is about exactly this loop.
	RegenPerTest []int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// JustifyStats are the accumulated justifier counters.
	JustifyStats justify.Stats
}

// ensureSets sizes the per-set tallies for k target sets.
func (r *Result) ensureSets(k int) {
	for len(r.SecondaryAcceptsBySet) < k {
		r.SecondaryAcceptsBySet = append(r.SecondaryAcceptsBySet, 0)
	}
	for len(r.SecondaryRejectsBySet) < k {
		r.SecondaryRejectsBySet = append(r.SecondaryRejectsBySet, 0)
	}
}

// backend abstracts the two justification procedures. im holds the
// implications of the cube, or is nil when the backend derives them.
type backend interface {
	justifyCube(cube *robust.Cube, im *robust.Implier) (circuit.TwoPattern, bool)
	stats() justify.Stats
}

type randomizedBackend struct{ j *justify.Justifier }

func (b randomizedBackend) justifyCube(cube *robust.Cube, im *robust.Implier) (circuit.TwoPattern, bool) {
	return b.j.JustifyImplied(cube, im)
}
func (b randomizedBackend) stats() justify.Stats { return b.j.Stats() }

type bnbBackend struct{ b *justify.BnB }

func (b bnbBackend) justifyCube(cube *robust.Cube, im *robust.Implier) (circuit.TwoPattern, bool) {
	test, ok, _ := b.b.JustifyImplied(cube, im)
	return test, ok
}
func (b bnbBackend) stats() justify.Stats {
	st := b.b.Stats()
	return justify.Stats{Calls: st.Calls, Successes: st.Successes, Backtracks: st.Backtracks}
}

// generator holds the shared state of one run.
type generator struct {
	c        *circuit.Circuit
	cfg      Config
	ctx      context.Context // nil means never canceled
	just     backend
	faults   []robust.FaultConditions
	detected []bool
	tried    []bool
	// order is the iteration order of primaries and secondary
	// candidates: shuffled by the seed for Arbitrary, fault-list order
	// otherwise.
	order []int
	// im holds the implications of the current test's cube; nil when
	// the backend does not seed from implications (see justifyFault).
	im *robust.Implier

	// Scratch buffers of the secondary loop.
	cand  []int
	delta []int
}

// canceled reports whether the run's context has been canceled; the
// generation loops poll it between primary targets and between
// secondary candidates.
func (g *generator) canceled() bool {
	return g.ctx != nil && g.ctx.Err() != nil
}

func newGenerator(c *circuit.Circuit, fcs []robust.FaultConditions, cfg Config) *generator {
	var be backend
	if cfg.UseBnB {
		be = bnbBackend{justify.NewBnB(c, cfg.BnB)}
	} else {
		jcfg := cfg.Justify
		jcfg.Seed = cfg.Seed
		be = randomizedBackend{justify.New(c, jcfg)}
	}
	g := &generator{
		c:        c,
		cfg:      cfg,
		just:     be,
		faults:   fcs,
		detected: make([]bool, len(fcs)),
		tried:    make([]bool, len(fcs)),
	}
	g.order = rand.New(rand.NewSource(cfg.Seed)).Perm(len(fcs))
	if cfg.Heuristic != Arbitrary {
		for i := range g.order {
			g.order[i] = i
		}
	}
	seeds := !cfg.Justify.DisableImplicationSeed
	if cfg.UseBnB {
		seeds = !cfg.BnB.DisableImplicationSeed
	}
	if seeds {
		g.im = robust.NewImplier(c)
	}
	return g
}

// Generate runs the basic test generation procedure of Section 2 on a
// single target set (already screened: every fault has alternatives).
func Generate(c *circuit.Circuit, fcs []robust.FaultConditions, cfg Config) *Result {
	res, _ := GenerateCtx(context.Background(), c, fcs, cfg)
	return res
}

// GenerateCtx is Generate under a context: the run stops promptly when
// ctx is canceled, returning the partial result together with
// ctx.Err(). Cancellation is observed between primary targets and
// between secondary candidates.
func GenerateCtx(ctx context.Context, c *circuit.Circuit, fcs []robust.FaultConditions, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now() //lint:telemetry feeds Result.Elapsed only, never a generation decision
	g := newGenerator(c, fcs, cfg)
	g.ctx = ctx
	res := &Result{}
	setOf := make([]int, len(fcs))
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
		if cfg.Heuristic != Uncompacted {
			test = g.compactTest(ctx, pi, test, cube, res, setOf, 1)
		} else {
			res.RegenPerTest = append(res.RegenPerTest, 0)
		}
		res.Tests = append(res.Tests, test)
		g.simDrop(ctx, test)
	}
	g.fill(res)
	res.Elapsed = time.Since(start) //lint:telemetry wall-clock report, not part of the digest
	res.JustifyStats = g.just.stats()
	return res, ctx.Err()
}

// compactTest is addSecondariesPhased under a "compaction" span on the
// job timeline — one span per generated test, attributed with the
// secondary accept/reject deltas.
func (g *generator) compactTest(ctx context.Context, primary int, test circuit.TwoPattern, cube robust.Cube, res *Result, setOf []int, k int) circuit.TwoPattern {
	accepts, rejects, cheap := res.SecondaryAccepts, res.SecondaryRejects, res.CheapAccepts
	_, span := obs.StartSpan(ctx, "compaction",
		obs.String("heuristic", g.cfg.Heuristic.String()), obs.Int("test", len(res.Tests)))
	test = g.addSecondariesPhased(primary, test, cube, res, setOf, k)
	// Every non-cheap accept regenerated the test under the grown cube.
	res.RegenPerTest = append(res.RegenPerTest,
		(res.SecondaryAccepts-accepts)-(res.CheapAccepts-cheap))
	span.End(obs.Int("accepts", res.SecondaryAccepts-accepts),
		obs.Int("rejects", res.SecondaryRejects-rejects))
	return test
}

// simDrop is dropDetected under a "simulation" span on the job
// timeline: the end-of-test fault simulation that drops the target
// faults the finished test detects.
func (g *generator) simDrop(ctx context.Context, test circuit.TwoPattern) {
	_, span := obs.StartSpan(ctx, "simulation", obs.Int("faults", len(g.faults)))
	g.dropDetected(test, nil)
	span.End()
}

// EnrichResult reports a run of the enrichment procedure.
type EnrichResult struct {
	Tests []circuit.TwoPattern
	// DetectedP0 / DetectedP1 are per-fault detection flags for the
	// two target sets.
	DetectedP0, DetectedP1                           []bool
	DetectedP0Count                                  int
	DetectedP1Count                                  int
	PrimaryAborts                                    int
	SecondaryAccepts, SecondaryRejects, CheapAccepts int
	// SecondaryAcceptsBySet / SecondaryRejectsBySet split the
	// secondary outcomes between P0 (index 0) and P1 (index 1) —
	// the counters the paper's Table 6 discussion argues about.
	SecondaryAcceptsBySet, SecondaryRejectsBySet []int
	// RegenPerTest[t] counts the justification regenerations of test
	// t (see Result.RegenPerTest).
	RegenPerTest []int
	Elapsed      time.Duration
	JustifyStats justify.Stats
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
	kres, err := EnrichKCtx(ctx, c, [][]robust.FaultConditions{p0, p1}, cfg)
	return &EnrichResult{
		Tests:                 kres.Tests,
		DetectedP0:            kres.Detected[0],
		DetectedP1:            kres.Detected[1],
		DetectedP0Count:       kres.DetectedCounts[0],
		DetectedP1Count:       kres.DetectedCounts[1],
		PrimaryAborts:         kres.PrimaryAborts,
		SecondaryAccepts:      kres.SecondaryAccepts,
		SecondaryRejects:      kres.SecondaryRejects,
		CheapAccepts:          kres.CheapAccepts,
		SecondaryAcceptsBySet: kres.SecondaryAcceptsBySet,
		SecondaryRejectsBySet: kres.SecondaryRejectsBySet,
		RegenPerTest:          kres.RegenPerTest,
		Elapsed:               kres.Elapsed,
		JustifyStats:          kres.JustifyStats,
	}, err
}

// justifyFault tries the fault's alternatives (merged into base when
// non-nil) and returns the first test found with the merged cube.
//
// When the backend seeds from implications, g.im holds the
// implications of base (of nothing for a primary), and each
// alternative is first extended onto them: an alternative whose
// implications conflict is one the backend would reject before any
// search, so it is skipped without merging or justifying, which
// leaves the backend's random stream as it was. The extension is the
// implication closure of the merged cube, so the backend seeds from it
// instead of deriving it again; the extension of the accepted
// alternative is kept, so g.im then holds the implications of the
// returned cube.
func (g *generator) justifyFault(i int, base *robust.Cube) (circuit.TwoPattern, robust.Cube, bool) {
	if g.im != nil && base == nil {
		g.im.Rollback(0)
	}
	for a := range g.faults[i].Alts {
		alt := &g.faults[i].Alts[a]
		mark := 0
		if g.im != nil {
			mark = g.im.Mark()
			if !g.im.Extend(alt) {
				g.im.Rollback(mark)
				continue
			}
		}
		cube, ok := *alt, true
		if base != nil {
			cube, ok = base.Merge(alt)
		}
		if ok {
			if test, ok := g.just.justifyCube(&cube, g.im); ok {
				return test, cube, true
			}
		}
		if g.im != nil {
			g.im.Rollback(mark)
		}
	}
	return circuit.TwoPattern{}, robust.Cube{}, false
}

// dropDetected fault simulates the finished test over all undetected
// target faults and marks detections.
func (g *generator) dropDetected(test circuit.TwoPattern, _ []bool) {
	sim := test.Simulate(g.c)
	for i := range g.faults {
		if g.detected[i] {
			continue
		}
		if faultsim.DetectsSim(&g.faults[i], sim) {
			g.detected[i] = true
		}
	}
}

func (g *generator) fill(res *Result) {
	res.Detected = append([]bool(nil), g.detected...)
	for _, d := range g.detected {
		if d {
			res.DetectedCount++
		}
	}
}

// RandomTest returns a random fully specified two-pattern test; used
// by comparison baselines and tests.
func RandomTest(c *circuit.Circuit, rng *rand.Rand) circuit.TwoPattern {
	tp := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i := range tp.P1 {
		tp.P1[i] = tval.V(rng.Intn(2))
		tp.P3[i] = tval.V(rng.Intn(2))
	}
	return tp
}
