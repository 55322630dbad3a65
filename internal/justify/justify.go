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
// Three engineering refinements keep the procedure fast without
// changing its character:
//
//   - the justifier seeds the input values with the implications of
//     the cube (necessary values by construction);
//   - tentative probing is restricted to inputs whose probe outcome
//     may have changed, tracked with precomputed reachability bitsets;
//   - and among those, to inputs whose fanout cone holds a required
//     net: a probe of any other input changes no required net, so it
//     can never rule a value out.
//
// With implication seeding on, a cube whose implications conflict
// fails before any probe or random draw. A caller that already holds
// the implications of a cube can therefore reject such extensions of
// it itself (robust.Implier.Extend) without calling Justify and without
// changing the results; the secondary-target loop of package core does.
package justify

import (
	"math/bits"
	"math/rand"

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
	// relevant inputs, as the paper's literal loop does (ablation).
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
	c   *circuit.Circuit
	sim *circuit.Simulator
	im  *robust.Implier
	rng *rand.Rand
	cfg Config

	words int
	// support[net*words .. ] is the bitset of PI indices in the
	// transitive fanin of net.
	support []uint64
	// dirtyMask[net*words ..] is the bitset of PI indices whose probe
	// outcome can change when net changes value: the PIs reaching net
	// or reaching any gate output fed by net.
	dirtyMask []uint64

	req     []tval.Triple // per net; TX when unconstrained
	reqList []int
	// reqMask is the union of support[] over the current cube's nets:
	// the PIs whose fanout cone holds a required net. A probe of any
	// other PI changes no required net, so it can never conflict.
	reqMask []uint64

	dirty []uint64
	free  []piPos // pickDecision's scratch list

	stats Stats
}

// New creates a Justifier for the circuit.
func New(c *circuit.Circuit, cfg Config) *Justifier {
	j := &Justifier{
		c:   c,
		sim: circuit.NewSimulator(c),
		im:  robust.NewImplier(c),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
	n := len(c.Lines)
	j.words = (len(c.PIs) + 63) / 64
	j.support = make([]uint64, n*j.words)
	j.dirtyMask = make([]uint64, n*j.words)
	j.req = make([]tval.Triple, n)
	for i := range j.req {
		j.req[i] = tval.TX
	}
	j.dirty = make([]uint64, j.words)
	j.reqMask = make([]uint64, j.words)

	// support: forward pass in topological order.
	for i, pi := range c.PIs {
		j.support[pi*j.words+i/64] |= 1 << (uint(i) % 64)
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		out := g.Out * j.words
		for _, in := range g.InNets {
			net := in * j.words
			for w := 0; w < j.words; w++ {
				j.support[out+w] |= j.support[net+w]
			}
		}
	}
	// dirtyMask: own support plus the support of every gate output the
	// net feeds.
	copy(j.dirtyMask, j.support)
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		out := g.Out * j.words
		for _, in := range g.InNets {
			net := in * j.words
			for w := 0; w < j.words; w++ {
				j.dirtyMask[net+w] |= j.support[out+w]
			}
		}
	}
	return j
}

// Stats returns the accumulated effort counters.
func (j *Justifier) Stats() Stats { return j.stats }

// Justify searches for a fully specified two-pattern test satisfying
// every requirement in the cube. ok is false when the search fails;
// the procedure is randomized and incomplete, so failure does not
// prove the cube unsatisfiable.
func (j *Justifier) Justify(cube *robust.Cube) (test circuit.TwoPattern, ok bool) {
	j.stats.Calls++
	c := j.c
	defer j.clearReq()
	for i, net := range cube.Nets {
		j.req[net] = cube.Vals[i]
		j.reqList = append(j.reqList, net)
	}
	j.sim.Reset()
	for w := range j.dirty {
		j.dirty[w] = 0
		j.reqMask[w] = 0
	}
	for _, net := range cube.Nets {
		for w, m := range j.support[net*j.words : (net+1)*j.words] {
			j.reqMask[w] |= m
		}
	}

	// Seed with the implications of the cube: every implied primary
	// input value is necessary.
	if !j.cfg.DisableImplicationSeed {
		if !j.im.ImplyConsistent(cube) {
			return test, false
		}
		for i, pi := range c.PIs {
			for _, plane := range []int{0, 2} {
				if v := j.im.Value(pi, plane); v != tval.X {
					if j.applyPos(i, plane, v, true) {
						return test, false
					}
				}
			}
		}
	}

	// Inputs that can influence a required net must be probed.
	j.orDirty(j.reqMask)

	if !j.assignNecessary() {
		return test, false
	}
	for {
		piIdx, plane, v, done := j.pickDecision()
		if done {
			break
		}
		j.stats.Decisions++
		if j.applyPos(piIdx, plane, v, true) {
			return test, false
		}
		if !j.assignNecessary() {
			return test, false
		}
	}

	// All inputs specified: verify that the simulated values cover the
	// cube (required stable values must be hazard-free).
	for i, net := range cube.Nets {
		if !cube.Vals[i].Covers(j.sim.Triple(net)) {
			return test, false
		}
	}
	test = j.extract()
	j.stats.Successes++
	return test, true
}

func (j *Justifier) clearReq() {
	for _, net := range j.reqList {
		j.req[net] = tval.TX
	}
	j.reqList = j.reqList[:0]
}

func (j *Justifier) orDirty(mask []uint64) {
	if j.cfg.DisableDirtyTracking {
		// Paper-literal mode: any change makes every input worth
		// re-probing, reproducing the full sweeps of Section 2.1.
		j.allDirty()
		return
	}
	for w := 0; w < j.words; w++ {
		j.dirty[w] |= mask[w] & j.reqMask[w]
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

// applyPos assigns pattern position plane∈{0,2} of primary input
// piIdx, propagates, and reports whether a required value was
// contradicted. When the other pattern position holds the same value,
// the intermediate also becomes specified (the input is stable).
// When commit is true, changed nets extend the dirty set.
func (j *Justifier) applyPos(piIdx, plane int, v tval.V, commit bool) (conflict bool) {
	net := j.c.PIs[piIdx]
	if j.sim.Value(net, plane) == v {
		return false
	}
	if j.consume(j.sim.Assign(net, plane, v), plane, commit) {
		return true
	}
	other := 2 - plane
	if j.sim.Value(net, other) == v && j.sim.Value(net, 1) == tval.X {
		if j.consume(j.sim.Assign(net, 1, v), 1, commit) {
			return true
		}
	}
	return false
}

// consume checks changed nets against the requirements and, on commit,
// extends the dirty set.
func (j *Justifier) consume(changed []int, plane int, commit bool) (conflict bool) {
	for _, n := range changed {
		r := j.req[n]
		if r != tval.TX {
			if want := r.At(plane); want != tval.X && j.sim.Value(n, plane) != want {
				conflict = true
			}
		}
		if commit {
			j.orDirty(j.dirtyMask[n*j.words:])
		}
	}
	return conflict
}

// probe tentatively applies a position value and reports conflict.
func (j *Justifier) probe(piIdx, plane int, v tval.V) bool {
	j.stats.Probes++
	m := j.sim.Snapshot()
	conflict := j.applyPos(piIdx, plane, v, false)
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
			net := j.c.PIs[piIdx]
			if j.sim.Value(net, plane) != tval.X {
				continue
			}
			c0 := j.probe(piIdx, plane, tval.Zero)
			c1 := j.probe(piIdx, plane, tval.One)
			switch {
			case c0 && c1:
				return false
			case c0:
				if j.applyPos(piIdx, plane, tval.One, true) {
					return false
				}
			case c1:
				if j.applyPos(piIdx, plane, tval.Zero, true) {
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
	c := j.c
	for i, net := range c.PIs {
		v1 := j.sim.Value(net, 0)
		v3 := j.sim.Value(net, 2)
		if v1 != tval.X && v3 == tval.X {
			return i, 2, v1, false
		}
		if v1 == tval.X && v3 != tval.X {
			return i, 0, v3, false
		}
	}
	// Random unspecified position.
	free := j.free[:0]
	for i, net := range c.PIs {
		if j.sim.Value(net, 0) == tval.X {
			free = append(free, piPos{i, 0})
		}
		if j.sim.Value(net, 2) == tval.X {
			free = append(free, piPos{i, 2})
		}
	}
	j.free = free
	if len(free) == 0 {
		return 0, 0, tval.X, true
	}
	p := free[j.rng.Intn(len(free))]
	return p.pi, p.plane, tval.V(j.rng.Intn(2)), false
}

// extract snapshots the current fully specified input values.
func (j *Justifier) extract() circuit.TwoPattern {
	c := j.c
	t := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i, net := range c.PIs {
		t.P1[i] = j.sim.Value(net, 0)
		t.P3[i] = j.sim.Value(net, 2)
	}
	return t
}
