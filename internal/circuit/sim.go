package circuit

import (
	"math/bits"
	"slices"

	"repro/internal/tval"
)

// NumPlanes is the number of simulation planes of a two-pattern test:
// first pattern, intermediate, second pattern.
const NumPlanes = 3

// Simulator performs incremental three-valued simulation of a circuit
// on the three planes of a two-pattern test.
//
// It simulates a compiled net list: every net of the circuit after
// NewSimulator, or the nets passed to Compile plus every primary input.
// The compiled nets are numbered densely in topological order; these
// numbers are slots. Primary input i (in PIs order) is slot i, and
// every gate's output slot is higher than the slots it reads. Assign and At address
// slots; Value and Triple address lines.
//
// Assignments are monotone: values only move from x to a specified
// value, so propagation from a changed primary input touches exactly
// the newly specified nets. Every Assign appends to an undo log;
// RollbackTo restores an earlier state, which makes speculative probing
// ("would assigning 0 to this input conflict?") cheap.
type Simulator struct {
	c *Circuit

	nets []int // slot -> net ID
	slot []int // net ID -> slot, -1 when not compiled

	// Slot k ≥ len(c.PIs) holds the output of a gate of type typ[k]
	// reading the slots in[inStart[k]:inStart[k+1]]. The compiled gates
	// reading slot k are fo[foStart[k]:foStart[k+1]].
	typ         []GateType
	in, inStart []int
	fo, foStart []int

	val [NumPlanes][]tval.V

	undo []undoEntry

	// propagation scratch, reused across calls
	sched   []uint64 // bitset of gate slots scheduled for evaluation
	changed []int
}

// undoEntry is one value set by Assign; as values move only from x,
// undoing it restores x.
type undoEntry struct{ plane, slot int32 }

// Mark is a point in the undo log, returned by Snapshot.
type Mark int

// NewSimulator creates a simulator of the whole circuit with all
// values x.
func NewSimulator(c *Circuit) *Simulator {
	s := &Simulator{c: c, slot: make([]int, len(c.Lines))}
	for i := range s.slot {
		s.slot[i] = -1
	}
	outs := make([]int, len(c.Gates))
	for gi := range c.Gates {
		outs[gi] = c.Gates[gi].Out
	}
	s.Compile(outs)
	return s
}

// Compile restricts the simulator to the given nets plus every primary
// input and resets every value to x. The nets must be closed under
// fanin: a gate output in the set reads only nets in the set or primary
// inputs. Propagation then changes exactly the compiled nets that full
// propagation changes, and Compile panics on a set that is not closed.
// Buffers are reused, so recompiling allocates only when the set grows.
func (s *Simulator) Compile(nets []int) {
	c := s.c
	for _, n := range s.nets {
		s.slot[n] = -1
	}
	for _, n := range nets {
		if c.Lines[n].Gate >= 0 {
			s.slot[n] = 0 // member mark; overwritten below
		}
	}
	s.nets = append(s.nets[:0], c.PIs...)
	for _, gi := range c.TopoGates() {
		if out := c.Gates[gi].Out; s.slot[out] == 0 {
			s.nets = append(s.nets, out)
		}
	}
	for k, n := range s.nets {
		s.slot[n] = k
	}

	s.typ, s.in, s.fo = s.typ[:0], s.in[:0], s.fo[:0]
	s.inStart, s.foStart = s.inStart[:0], s.foStart[:0]
	for _, n := range s.nets {
		s.inStart = append(s.inStart, len(s.in))
		s.foStart = append(s.foStart, len(s.fo))
		var typ GateType // unused for primary inputs
		if g := c.Lines[n].Gate; g >= 0 {
			typ = c.Gates[g].Type
			for _, in := range c.Gates[g].InNets {
				if s.slot[in] < 0 {
					panic("circuit: compiled net set is not closed under fanin")
				}
				s.in = append(s.in, s.slot[in])
			}
		}
		s.typ = append(s.typ, typ)
		for _, gi := range c.Fanout(n) {
			if r := s.slot[c.Gates[gi].Out]; r >= 0 {
				s.fo = append(s.fo, r)
			}
		}
	}
	s.inStart = append(s.inStart, len(s.in))
	s.foStart = append(s.foStart, len(s.fo))

	size := len(s.nets)
	for p := range s.val {
		s.val[p] = slices.Grow(s.val[p][:0], size)[:size]
	}
	words := (size + 63) / 64
	s.sched = slices.Grow(s.sched[:0], words)[:words]
	clear(s.sched)
	s.Reset()
}

// Len returns the number of compiled nets (slots).
func (s *Simulator) Len() int { return len(s.nets) }

// Slot returns the slot of a line's net, or -1 when it is not
// compiled.
func (s *Simulator) Slot(line int) int { return s.slot[s.c.Lines[line].Net] }

// Readers returns the slots of the compiled gates reading slot k. The
// slice is the simulator's own, valid until the next Compile.
func (s *Simulator) Readers(k int) []int { return s.fo[s.foStart[k]:s.foStart[k+1]] }

// Reset sets every value to x and clears the undo log.
func (s *Simulator) Reset() {
	for p := range s.val {
		for i := range s.val[p] {
			s.val[p][i] = tval.X
		}
	}
	s.undo = s.undo[:0]
}

// At returns the simulated value at slot k on one plane.
func (s *Simulator) At(k, plane int) tval.V { return s.val[plane][k] }

// Value returns the simulated value of a line on one plane; x when the
// line's net is not compiled.
func (s *Simulator) Value(line, plane int) tval.V {
	if k := s.Slot(line); k >= 0 {
		return s.val[plane][k]
	}
	return tval.X
}

// Triple returns the simulated value triple of a line.
func (s *Simulator) Triple(line int) tval.Triple {
	return tval.NewTriple(s.Value(line, 0), s.Value(line, 1), s.Value(line, 2))
}

// Snapshot returns a mark for RollbackTo.
func (s *Simulator) Snapshot() Mark { return Mark(len(s.undo)) }

// RollbackTo undoes every assignment made after the mark.
func (s *Simulator) RollbackTo(m Mark) {
	for i := len(s.undo) - 1; i >= int(m); i-- {
		e := s.undo[i]
		s.val[e.plane][e.slot] = tval.X
	}
	s.undo = s.undo[:int(m)]
}

// Assign sets the value of primary input pi (its index in PIs, which is
// also its slot) on one plane and propagates the consequences through
// the compiled nets. It returns the slots whose value changed on that
// plane (including pi itself); the slice is valid until the next
// Assign. Assigning the already-present value is a no-op.
//
// Assignments must be monotone: changing a specified value to a
// different specified value panics, as the incremental propagation
// only supports x → 0/1 refinement.
func (s *Simulator) Assign(pi, plane int, v tval.V) []int {
	vals := s.val[plane]
	s.changed = s.changed[:0]
	if vals[pi] == v {
		return s.changed
	}
	if vals[pi] != tval.X {
		panic("circuit: non-monotone simulator assignment")
	}
	s.set(plane, pi, v)
	hi := s.schedule(pi, -1)
	// A reader's slot is higher than its drivers', so draining the
	// scheduled set lowest slot first evaluates in topological order.
	for w := pi / 64; w <= hi; w++ {
		for s.sched[w] != 0 {
			b := bits.TrailingZeros64(s.sched[w])
			s.sched[w] &^= 1 << uint(b)
			k := w*64 + b
			if vals[k] != tval.X {
				continue // specified values are final
			}
			if nv := s.typ[k].Eval(s.in[s.inStart[k]:s.inStart[k+1]], vals); nv != tval.X {
				s.set(plane, k, nv)
				hi = s.schedule(k, hi)
			}
		}
	}
	return s.changed
}

func (s *Simulator) set(plane, k int, v tval.V) {
	s.undo = append(s.undo, undoEntry{int32(plane), int32(k)})
	s.val[plane][k] = v
	s.changed = append(s.changed, k)
}

// schedule marks the readers of slot k for evaluation and returns the
// highest scheduled word, at least hi.
func (s *Simulator) schedule(k, hi int) int {
	for _, r := range s.Readers(k) {
		s.sched[r/64] |= 1 << uint(r%64)
		hi = max(hi, r/64)
	}
	return hi
}

// TripleSim fully simulates two-pattern tests on one circuit into a
// buffer it owns, so a caller that simulates test after test allocates
// it once. It is the one full three-plane simulation: SimulateTriples
// is a TripleSim used once, and Evaluate reads its first plane.
type TripleSim struct {
	c   *Circuit
	out []tval.Triple
}

// NewTripleSim returns a TripleSim of c.
func NewTripleSim(c *Circuit) *TripleSim {
	return &TripleSim{c: c, out: make([]tval.Triple, len(c.Lines))}
}

// Simulate fully simulates the two-pattern test given by the first-
// and second-pattern values of the primary inputs (in PIs order),
// values in {0, 1, x}. The intermediate plane of a primary input is
// its pattern value when both patterns agree and are specified, x
// otherwise. The result maps every line ID to its value triple; it is
// s's buffer, valid until the next call.
//
// The three planes are simulated at once, one gate at a time on the
// packed triples (laneKernel), gate outputs in topological order and
// then each branch from its stem.
func (s *TripleSim) Simulate(p1, p3 []tval.V) []tval.Triple {
	c, out := s.c, s.out
	if len(p1) != len(c.PIs) || len(p3) != len(c.PIs) {
		panic("circuit: TripleSim.Simulate pattern length mismatch")
	}
	for i, pi := range c.PIs {
		mid := tval.X
		if p1[i] != tval.X && p1[i] == p3[i] {
			mid = p1[i]
		}
		out[pi] = tval.NewTriple(p1[i], mid, p3[i])
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		out[g.Out] = laneKernel(g.Type, g.InNets, out)
	}
	// Nets are PI and stem line IDs; a branch reads its stem's value.
	for i := range c.Lines {
		out[i] = out[c.Lines[i].Net]
	}
	return out
}

// lanes has the low bit of each position of a packed tval.Triple set.
// A position holds 0 as 00, 1 as 01 and x as 10, so a triple's own
// bits mark the positions holding 1, and its bits shifted right by one
// those holding x.
const lanes = 0b010101

// laneOp selects a gate type's function in laneKernel, as masks over
// the positions. A position with an input holding the controlling
// value (0 under ctrl0, 1 under ctrl1) outputs 1; otherwise it outputs
// x when an input is x, and else the parity of the ones under par, 0
// without. flip then complements the specified outputs.
type laneOp struct{ ctrl0, ctrl1, par, flip uint8 }

var laneOps = [numGateTypes]laneOp{
	And:  {ctrl0: lanes, flip: lanes},
	Nand: {ctrl0: lanes},
	Or:   {ctrl1: lanes},
	Nor:  {ctrl1: lanes, flip: lanes},
	Xor:  {par: lanes},
	Xnor: {par: lanes, flip: lanes},
	Buf:  {par: lanes},
	Not:  {par: lanes, flip: lanes},
}

// laneKernel evaluates a gate of type t reading the packed triples
// vals[in[k]] on all three positions at once, without branching on
// the values: the same function as Eval on each position.
func laneKernel(t GateType, in []int, vals []tval.Triple) tval.Triple {
	var or, xor uint8
	and := uint8(lanes) // positions where every input is 1 or x
	for _, k := range in {
		v := uint8(vals[k])
		or |= v
		and &= v | v>>1
		xor ^= v
	}
	op := &laneOps[t]
	has0, has1, hasX := lanes&^and, or&lanes, or>>1&lanes
	ctrl := has0&op.ctrl0 | has1&op.ctrl1
	x := hasX &^ ctrl
	one := (ctrl | xor&op.par ^ op.flip) &^ x
	return tval.Triple(one | x<<1)
}

// SimulateTriples is TripleSim.Simulate into a freshly allocated
// buffer.
func SimulateTriples(c *Circuit, p1, p3 []tval.V) []tval.Triple {
	return NewTripleSim(c).Simulate(p1, p3)
}

// Evaluate returns the value of every line, indexed by line ID, under
// one pattern of the primary-input values (in PIs order): the first
// plane of the two-pattern test that applies the pattern twice.
func Evaluate(c *Circuit, pattern []tval.V) []tval.V {
	vals := make([]tval.V, len(c.Lines))
	for i, t := range SimulateTriples(c, pattern, pattern) {
		vals[i] = t.P1()
	}
	return vals
}
