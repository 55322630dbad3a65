// Package justify implements the simulation-based justification
// procedure of Section 2.1 of the DATE 2002 paper.
//
// Given a requirement cube (the union of A(p) over the faults a test
// must detect), the procedure maintains a value triple on every
// primary input, initially xxx, and alternates two phases:
//
//   - Necessary values: for every unspecified pattern position β_ij of
//     a primary input, tentatively assign 0 and 1; a value whose
//     three-valued propagation contradicts a required value is ruled
//     out. If both values are ruled out the justification fails; if
//     one is, the other is assigned permanently. This repeats until no
//     new values are found.
//
//   - Decision: if some input has exactly one pattern value specified,
//     the value is copied to the other pattern (making the input
//     stable); otherwise a random unspecified pattern position gets a
//     random value. Then necessary values are recomputed.
//
// The loop ends when all primary inputs are specified; the resulting
// fully specified test is checked against the cube (required stable
// values must be hazard-free under the conservative three-plane
// simulation) and returned.
//
// Four engineering refinements keep the procedure fast without
// changing its character:
//
//   - the justifier seeds the input values with the implications of
//     the cube (necessary values by construction);
//   - tentative probing is restricted to inputs whose fanout cone
//     holds a required net: a probe of any other input changes no
//     required net, so it can never rule a value out;
//   - and among those, to inputs whose probe outcome may have changed
//     (watched probes, the watched literals of SAT solvers). A probe
//     watches the gates its propagation evaluated, the readers of the
//     slots it changed, per plane; a commit that changes one of them,
//     or one of their inputs, marks the probed input dirty again. A
//     consistent probe's outcome depends only on the values of those
//     gates and their inputs, and on its input's other pattern (the
//     stable rule), which a commit to that input marks. Forced values
//     are monotone, so the fixpoint does not depend on probe order:
//     tests, decisions and random draws are those of the paper's full
//     sweeps (Config.DisableDirtyTracking), and only the probe count
//     is lower;
//   - every assignment, probe or commit, propagates only within the
//     cube's cone, the transitive fanin of its required nets, which
//     is compiled once per call with the primary inputs (reqSim). A
//     conflict arises only on a required net, whose value the cone
//     alone determines, so tests, decisions and random draws are
//     those of full propagation.
//
// With implication seeding on, a cube whose implications conflict
// fails before any probe or random draw. A caller that already holds
// the implications of a cube can therefore reject such extensions of
// it itself (robust.Implier.Extend) without calling Justify and without
// changing the results, and seed from the extension it keeps
// (JustifyImplied); the secondary-target loop of package core does both.
package justify

import (
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// Config parameterizes a Justifier.
type Config struct {
	// Seed initializes the random number generator used for decision
	// selection; runs with the same seed are reproducible.
	Seed int64
	// DisableImplicationSeed turns off seeding the search with the
	// implications of the cube (useful for ablation studies).
	DisableImplicationSeed bool
	// DisableDirtyTracking makes every necessary-value pass probe all
	// relevant inputs, as the paper's literal loop does: the ablation,
	// and the reference that watched probes are tested against.
	DisableDirtyTracking bool
}

// Stats accumulates justification effort counters.
type Stats struct {
	Calls     int // Justify invocations
	Successes int
	Probes    int // tentative value probes
	Decisions int // random or copy decisions
	// Backtracks counts search backtracks; always zero for the
	// simulation-based procedure (it never backtracks — a conflict
	// fails the call), filled by the branch-and-bound backend.
	Backtracks int
}

// Justifier generates two-pattern tests satisfying requirement cubes
// on one circuit. It is not safe for concurrent use.
type Justifier struct {
	reqSim
	rng *rand.Rand
	cfg Config

	words int // bitset words over PI indices

	// reqMask is the set of primary inputs in the current cube's cone:
	// those whose fanout cone holds a required net. A probe of any
	// other input changes no required net, so it can never conflict.
	reqMask []uint64
	dirty   []uint64
	// watch[q][k*words ..] is the set of inputs whose last probe
	// evaluated the gate at slot k on plane q (markDirty, watchProbe).
	watch [circuit.NumPlanes][]uint64

	free []piPos // pickDecision's scratch list

	stats Stats
}

// New creates a Justifier for the circuit.
func New(c *circuit.Circuit, cfg Config) *Justifier {
	j := &Justifier{
		reqSim: newReqSim(c),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cfg:    cfg,
	}
	j.words = (len(c.PIs) + 63) / 64
	j.dirty = make([]uint64, j.words)
	j.reqMask = make([]uint64, j.words)
	return j
}

// Stats returns the accumulated effort counters.
func (j *Justifier) Stats() Stats { return j.stats }

// Justify searches for a fully specified two-pattern test satisfying
// every requirement in the cube. ok is false when the search fails;
// the procedure is randomized and incomplete, so failure does not
// prove the cube unsatisfiable.
func (j *Justifier) Justify(cube *robust.Cube) (test circuit.TwoPattern, ok bool) {
	return j.JustifyImplied(cube, nil)
}

// JustifyImplied is Justify for a caller that already holds the
// implications of the cube in im (see robust.Implier.Extend): the
// search seeds from them instead of deriving them again, with the
// same result. A nil im derives them, as Justify does.
func (j *Justifier) JustifyImplied(cube *robust.Cube, im *robust.Implier) (test circuit.TwoPattern, ok bool) {
	j.stats.Calls++
	j.load(cube)
	defer j.clear()
	clear(j.reqMask)
	for i, pi := range j.c.PIs {
		if j.cone[pi] {
			j.reqMask[i/64] |= 1 << uint(i%64)
		}
	}
	n := j.sim.Len() * j.words
	for q := range j.watch {
		j.watch[q] = slices.Grow(j.watch[q][:0], n)[:n]
		clear(j.watch[q])
	}

	// Seed with the implications of the cube, within the cone like
	// every assignment. Seeding marks nothing dirty: every input that
	// can influence a required net is marked next.
	if !j.cfg.DisableImplicationSeed && !j.seed(cube, im) {
		return test, false
	}

	// Inputs that can influence a required net must be probed.
	if j.cfg.DisableDirtyTracking {
		j.allDirty()
	} else {
		copy(j.dirty, j.reqMask)
	}

	if !j.assignNecessary() {
		return test, false
	}
	for {
		piIdx, plane, v, done := j.pickDecision()
		if done {
			break
		}
		j.stats.Decisions++
		if j.commit(piIdx, plane, v) {
			return test, false
		}
		if !j.assignNecessary() {
			return test, false
		}
	}

	// All inputs specified: verify the simulated values against the
	// cube.
	if !j.covers(cube) {
		return test, false
	}
	test = j.extract()
	j.stats.Successes++
	return test, true
}

// markDirty fires the watches on the readers of the slots that an
// assignment changed on one plane: it marks dirty every input whose
// last probe evaluated such a reader, and clears those watches. A
// changed gate is itself a reader of a changed slot, so this covers
// the gates a probe evaluated that the assignment set. A changed input
// also marks itself, as its probe of the other pattern reads it
// through the stable rule.
func (j *Justifier) markDirty(changed []int, plane int) {
	if j.cfg.DisableDirtyTracking {
		// Paper-literal mode: any change makes every input worth
		// re-probing, reproducing the full sweeps of Section 2.1.
		j.allDirty()
		return
	}
	watch := j.watch[plane]
	for _, k := range changed {
		for _, r := range j.sim.Readers(k) {
			ws := watch[r*j.words : (r+1)*j.words]
			for w, m := range ws {
				j.dirty[w] |= m
			}
			clear(ws)
		}
		if k < len(j.c.PIs) {
			j.dirty[k/64] |= j.reqMask[k/64] & (1 << uint(k%64))
		}
	}
}

// watchProbe registers the probe of input pi on the gates that its
// propagation evaluated on one plane: the readers of the slots it
// changed.
func (j *Justifier) watchProbe(pi int, changed []int, plane int) {
	w, bit := pi/64, uint64(1)<<uint(pi%64)
	watch := j.watch[plane]
	for _, c := range changed {
		for _, r := range j.sim.Readers(c) {
			watch[r*j.words+w] |= bit
		}
	}
}

func (j *Justifier) allDirty() {
	n := len(j.c.PIs)
	for w := 0; w < j.words; w++ {
		j.dirty[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		j.dirty[j.words-1] = (1 << uint(r)) - 1
	}
}

// commit permanently assigns a position value of the primary input
// with index piIdx, marking dirty the inputs whose probes watch what
// it changes, and reports conflict.
func (j *Justifier) commit(piIdx, plane int, v tval.V) bool {
	return j.apply(piIdx, plane, v, j.markDirty)
}

// probe tentatively applies a position value and reports conflict.
// A probe is rolled back and marks nothing dirty; it watches the gates
// it evaluated, so that a change to one of them marks its input dirty.
func (j *Justifier) probe(piIdx, plane int, v tval.V) bool {
	j.stats.Probes++
	var touch func(changed []int, plane int)
	if !j.cfg.DisableDirtyTracking {
		touch = func(changed []int, plane int) { j.watchProbe(piIdx, changed, plane) }
	}
	m := j.sim.Snapshot()
	conflict := j.apply(piIdx, plane, v, touch)
	j.sim.RollbackTo(m)
	return conflict
}

// assignNecessary runs the necessary-value fixpoint. It returns false
// when some position conflicts with both values.
func (j *Justifier) assignNecessary() bool {
	for {
		piIdx := j.popDirty()
		if piIdx < 0 {
			return true
		}
		for _, plane := range []int{0, 2} {
			if j.sim.At(piIdx, plane) != tval.X {
				continue
			}
			c0 := j.probe(piIdx, plane, tval.Zero)
			c1 := j.probe(piIdx, plane, tval.One)
			switch {
			case c0 && c1:
				return false
			case c0:
				if j.commit(piIdx, plane, tval.One) {
					return false
				}
			case c1:
				if j.commit(piIdx, plane, tval.Zero) {
					return false
				}
			}
		}
	}
}

// popDirty removes and returns one dirty PI index, or -1.
func (j *Justifier) popDirty() int {
	for w := 0; w < j.words; w++ {
		if j.dirty[w] == 0 {
			continue
		}
		b := bits.TrailingZeros64(j.dirty[w])
		j.dirty[w] &^= 1 << uint(b)
		idx := w*64 + b
		if idx >= len(j.c.PIs) {
			continue
		}
		return idx
	}
	return -1
}

// piPos is a pattern position (plane 0 or 2) of the primary input with
// index pi.
type piPos struct{ pi, plane int }

// pickDecision chooses the next position to specify: first an input
// with exactly one pattern value specified (copied to make the input
// stable), otherwise a random unspecified position with a random
// value. done is true when every position is specified.
func (j *Justifier) pickDecision() (piIdx, plane int, v tval.V, done bool) {
	j.free = j.free[:0]
	for i := range len(j.c.PIs) {
		v1, v3 := j.sim.At(i, 0), j.sim.At(i, 2)
		switch {
		case v1 != tval.X && v3 == tval.X:
			return i, 2, v1, false
		case v1 == tval.X && v3 != tval.X:
			return i, 0, v3, false
		case v1 == tval.X:
			j.free = append(j.free, piPos{i, 0}, piPos{i, 2})
		}
	}
	if len(j.free) == 0 {
		return 0, 0, tval.X, true
	}
	p := j.free[j.rng.Intn(len(j.free))]
	return p.pi, p.plane, tval.V(j.rng.Intn(2)), false
}
