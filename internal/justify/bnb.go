package justify

import (
	"cmp"
	"slices"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// BnBConfig parameterizes the branch-and-bound justifier.
type BnBConfig struct {
	// MaxBacktracks bounds the search; 0 means the default of 20000.
	// When the bound is hit the search gives up without a proof.
	MaxBacktracks int
	// DisableImplicationSeed turns off seeding from the cube's
	// implications (ablation).
	DisableImplicationSeed bool
}

// BnB is a complete, deterministic justification procedure: a
// backtracking search over the pattern values of the primary inputs in
// the support cone of the requirements. The paper points out that the
// run-to-run variations of the simulation-based procedure "can be
// eliminated by using a branch-and-bound procedure instead" — this is
// that procedure.
//
// Unlike Justifier, BnB either finds a test, proves that none exists
// (no fully specified two-pattern test covers the cube), or gives up
// at its backtrack bound.
//
// The search reads only primary-input positions and required nets, so
// every assignment propagates within the cube's cone (reqSim).
type BnB struct {
	reqSim
	cfg BnBConfig

	positions  []position // the current call's decision positions
	backtracks int
	stats      BnBStats
}

// BnBStats accumulates search effort.
type BnBStats struct {
	Calls, Successes, Proofs, Aborts int
	Nodes, Backtracks                int
}

// NewBnB creates a branch-and-bound justifier.
func NewBnB(c *circuit.Circuit, cfg BnBConfig) *BnB {
	if cfg.MaxBacktracks == 0 {
		cfg.MaxBacktracks = 20000
	}
	return &BnB{reqSim: newReqSim(c), cfg: cfg}
}

// Stats returns accumulated counters.
func (b *BnB) Stats() BnBStats { return b.stats }

// Justify searches exhaustively for a test covering the cube.
// ok reports success. When ok is false, proven reports whether the
// search was exhaustive: proven=true means no fully specified
// two-pattern test covers the cube (the fault combination is
// untestable), proven=false means the backtrack bound was hit.
func (b *BnB) Justify(cube *robust.Cube) (test circuit.TwoPattern, ok, proven bool) {
	return b.JustifyImplied(cube, nil)
}

// JustifyImplied is Justify seeded from im, which holds the
// implications of the cube (see Justifier.JustifyImplied); nil derives
// them.
func (b *BnB) JustifyImplied(cube *robust.Cube, im *robust.Implier) (test circuit.TwoPattern, ok, proven bool) {
	b.stats.Calls++
	b.load(cube)
	defer b.clear()
	b.backtracks = 0

	if !b.cfg.DisableImplicationSeed && !b.seed(cube, im) {
		b.stats.Proofs++
		return test, false, true
	}

	// Decision positions: both pattern planes of every input in the
	// cone, in line order, most-connected inputs first for stronger
	// early pruning.
	b.positions = b.positions[:0]
	for _, net := range b.coneList {
		if b.c.Lines[net].Kind == circuit.LinePI {
			pi := b.sim.Slot(net)
			b.positions = append(b.positions, position{net, pi, 0}, position{net, pi, 2})
		}
	}
	slices.SortFunc(b.positions, func(p, q position) int {
		return cmp.Or(
			cmp.Compare(len(b.c.Lines[q.net].Succs), len(b.c.Lines[p.net].Succs)),
			cmp.Compare(p.net, q.net),
			cmp.Compare(p.plane, q.plane))
	})

	ok, exhausted := b.search(cube, b.positions)
	if ok {
		b.stats.Successes++
		return b.extract(), true, false
	}
	if exhausted {
		b.stats.Proofs++
		return test, false, true
	}
	b.stats.Aborts++
	return test, false, false
}

// position is a pattern position (plane 0 or 2) of the primary input
// with line ID net and index pi.
type position struct {
	net, pi, plane int
}

// search assigns the remaining positions depth-first. It returns
// (found, exhausted): exhausted is false when the backtrack bound cut
// the search.
func (b *BnB) search(cube *robust.Cube, positions []position) (found, exhausted bool) {
	b.stats.Nodes++
	// Skip already specified positions (implications, earlier forces).
	for len(positions) > 0 && b.sim.At(positions[0].pi, positions[0].plane) != tval.X {
		positions = positions[1:]
	}
	if len(positions) == 0 {
		return b.covers(cube), true
	}
	pos := positions[0]
	exhausted = true
	for _, v := range []tval.V{tval.Zero, tval.One} {
		m := b.sim.Snapshot()
		if !b.apply(pos.pi, pos.plane, v, nil) {
			f, ex := b.search(cube, positions[1:])
			if f {
				return true, true
			}
			if !ex {
				exhausted = false
			}
		}
		b.sim.RollbackTo(m)
		b.backtracks++
		b.stats.Backtracks++
		if b.backtracks > b.cfg.MaxBacktracks {
			return false, false
		}
	}
	return false, exhausted
}
