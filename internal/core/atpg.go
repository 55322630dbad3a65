// Package core implements the paper's test generation procedure: the
// dynamic-compaction ATPG with primary and secondary target faults
// (Section 2.2) run over an ordered list of target sets, the test
// enrichment procedure of Section 3.2. The basic procedure of Section 2
// is the one-set case.
//
// Every test starts from a primary target fault of the first set.
// Secondary target faults are added to the set P(t) one at a time;
// after each addition the justification procedure regenerates a test
// satisfying the union of the A(p) cubes of P(t) — the addition is
// accepted only if regeneration succeeds. Secondaries come from the
// first set, then, once it is exhausted for the current test, from the
// second, and so on: with two sets P0 and P1, faults of P1 are detected
// without increasing the number of tests. Once a test is complete, all
// remaining target faults are fault simulated against it and detected
// faults are dropped.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/circuit"
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

// Result reports a run of the procedure. Generate returns it as is;
// the enrichment results embed it and view its detection flags per
// target set.
type Result struct {
	Tests []circuit.TwoPattern
	// Detected[i] reports whether target fault i was detected, with the
	// faults of all target sets numbered in set order.
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
	// from: index s counts candidates of sets[s] in EnrichK terms.
	// Generate runs a single set, so only index 0 is populated, and
	// both stay nil when no test was compacted.
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
	c      *circuit.Circuit
	cfg    Config
	ctx    context.Context
	just   backend
	faults []robust.FaultConditions
	// setOf[i] is the index of the target set fault i came from; k is
	// the number of sets.
	setOf    []int
	k        int
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
// generation loop polls it between primary targets and between
// secondary candidates.
func (g *generator) canceled() bool {
	return g.ctx.Err() != nil
}

func newGenerator(ctx context.Context, c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) *generator {
	var be backend
	if cfg.UseBnB {
		be = bnbBackend{justify.NewBnB(c, cfg.BnB)}
	} else {
		jcfg := cfg.Justify
		jcfg.Seed = cfg.Seed
		be = randomizedBackend{justify.New(c, jcfg)}
	}
	fcs := slices.Concat(sets...)
	g := &generator{
		c:        c,
		cfg:      cfg,
		ctx:      ctx,
		just:     be,
		faults:   fcs,
		setOf:    make([]int, 0, len(fcs)),
		k:        len(sets),
		detected: make([]bool, len(fcs)),
		tried:    make([]bool, len(fcs)),
	}
	for s, set := range sets {
		for range set {
			g.setOf = append(g.setOf, s)
		}
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
	return run(ctx, c, [][]robust.FaultConditions{fcs}, cfg)
}

// run is the one generation loop: primaries come from sets[0] and each
// test is compacted with secondaries phased over sets (unless the
// heuristic is Uncompacted), then fault simulated to drop what it
// detects.
func run(ctx context.Context, c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now() //lint:telemetry feeds Result.Elapsed only, never a generation decision
	g := newGenerator(ctx, c, sets, cfg)
	res := &Result{}
	for !g.canceled() {
		pi := g.pickPrimary()
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
			test = g.compactTest(ctx, pi, test, cube, res)
		} else {
			res.RegenPerTest = append(res.RegenPerTest, 0)
		}
		res.Tests = append(res.Tests, test)
		g.simDrop(ctx, test)
	}
	res.Detected = g.detected
	for _, d := range g.detected {
		if d {
			res.DetectedCount++
		}
	}
	res.Elapsed = time.Since(start) //lint:telemetry wall-clock report, not part of the digest
	res.JustifyStats = g.just.stats()
	return res, ctx.Err()
}

// pickPrimary picks the next primary from the first target set.
func (g *generator) pickPrimary() int {
	for _, i := range g.order {
		if g.setOf[i] == 0 && !g.detected[i] && !g.tried[i] {
			return i
		}
	}
	return -1
}

// compactTest is addSecondariesPhased under a "compaction" span on the
// job timeline — one span per generated test, attributed with the
// secondary accept/reject deltas.
func (g *generator) compactTest(ctx context.Context, primary int, test circuit.TwoPattern, cube robust.Cube, res *Result) circuit.TwoPattern {
	accepts, rejects, cheap := res.SecondaryAccepts, res.SecondaryRejects, res.CheapAccepts
	_, span := obs.StartSpan(ctx, "compaction",
		obs.String("heuristic", g.cfg.Heuristic.String()), obs.Int("test", len(res.Tests)))
	test = g.addSecondariesPhased(primary, test, cube, res)
	// Every non-cheap accept regenerated the test under the grown cube.
	res.RegenPerTest = append(res.RegenPerTest,
		(res.SecondaryAccepts-accepts)-(res.CheapAccepts-cheap))
	span.End(obs.Int("accepts", res.SecondaryAccepts-accepts),
		obs.Int("rejects", res.SecondaryRejects-rejects))
	return test
}

// simDrop fault simulates the finished test over all undetected target
// faults and drops the ones it detects, under a "simulation" span on
// the job timeline.
func (g *generator) simDrop(ctx context.Context, test circuit.TwoPattern) {
	_, span := obs.StartSpan(ctx, "simulation", obs.Int("faults", len(g.faults)))
	sim := test.Simulate(g.c)
	for i := range g.faults {
		if !g.detected[i] && g.faults[i].DetectedBy(sim) {
			g.detected[i] = true
		}
	}
	span.End()
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
