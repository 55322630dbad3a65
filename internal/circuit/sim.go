package circuit

import "repro/internal/tval"

// NumPlanes is the number of simulation planes of a two-pattern test:
// first pattern, intermediate, second pattern.
const NumPlanes = 3

// Simulator performs incremental three-valued simulation of a circuit
// on the three planes of a two-pattern test.
//
// Assignments are monotone: values only move from x to a specified
// value, so propagation from a changed primary input touches exactly
// the newly specified nets. Every Assign appends to an undo log;
// RollbackTo restores an earlier state, which makes speculative probing
// ("would assigning 0 to this input conflict?") cheap.
type Simulator struct {
	c   *Circuit
	val [NumPlanes][]tval.V

	undo []undoEntry

	// propagation scratch, reused across calls
	buckets [][]int // level -> gates scheduled for evaluation
	stamp   []int
	epoch   int
	changed []int
}

type undoEntry struct {
	plane int
	net   int
	old   tval.V
}

// Mark is a point in the undo log, returned by Snapshot.
type Mark int

// NewSimulator creates a simulator with all values x.
func NewSimulator(c *Circuit) *Simulator {
	s := &Simulator{c: c}
	for p := range s.val {
		s.val[p] = make([]tval.V, len(c.Lines))
	}
	s.buckets = make([][]int, c.MaxLevel()+1)
	s.stamp = make([]int, len(c.Gates))
	for i := range s.stamp {
		s.stamp[i] = -1
	}
	s.Reset()
	return s
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *Circuit { return s.c }

// Reset sets every value to x and clears the undo log.
func (s *Simulator) Reset() {
	for p := range s.val {
		for i := range s.val[p] {
			s.val[p][i] = tval.X
		}
	}
	s.undo = s.undo[:0]
}

// Value returns the simulated value of a line on one plane.
func (s *Simulator) Value(line, plane int) tval.V {
	return s.val[plane][s.c.Lines[line].Net]
}

// Triple returns the simulated value triple of a line.
func (s *Simulator) Triple(line int) tval.Triple {
	net := s.c.Lines[line].Net
	return tval.NewTriple(s.val[0][net], s.val[1][net], s.val[2][net])
}

// Snapshot returns a mark for RollbackTo.
func (s *Simulator) Snapshot() Mark { return Mark(len(s.undo)) }

// RollbackTo undoes every assignment made after the mark.
func (s *Simulator) RollbackTo(m Mark) {
	for i := len(s.undo) - 1; i >= int(m); i-- {
		e := s.undo[i]
		s.val[e.plane][e.net] = e.old
	}
	s.undo = s.undo[:int(m)]
}

// ClearUndo discards undo history (states before this call can no
// longer be rolled back to).
func (s *Simulator) ClearUndo() { s.undo = s.undo[:0] }

// Assign sets the value of a primary-input net on one plane and
// propagates the consequences. It returns the net IDs whose value
// changed on that plane (including pi itself); the slice is valid until
// the next Assign. Assigning the already-present value is a no-op.
//
// Assignments must be monotone: changing a specified value to a
// different specified value panics, as the incremental propagation
// only supports x → 0/1 refinement.
func (s *Simulator) Assign(pi, plane int, v tval.V) []int {
	return s.AssignWithin(pi, plane, v, nil)
}

// AssignWithin is Assign propagating only into gates whose output net
// is marked in within (indexed by net; nil marks every net). When
// within is closed under fanin (a marked net's gate reads only marked
// nets), the marked nets change exactly as under Assign, and no other
// net but pi changes.
func (s *Simulator) AssignWithin(pi, plane int, v tval.V, within []bool) []int {
	vals := s.val[plane]
	old := vals[pi]
	if old == v {
		return s.changed[:0]
	}
	if old != tval.X {
		panic("circuit: non-monotone simulator assignment")
	}
	s.changed = s.changed[:0]
	s.undo = append(s.undo, undoEntry{plane, pi, old})
	vals[pi] = v
	s.changed = append(s.changed, pi)

	s.epoch++
	maxLv := s.enqueue(pi, -1, within)
	// A consumer sits at a higher level than its producer, so the
	// level-ordered drain empties every bucket it fills.
	for lv := 0; lv <= maxLv; lv++ {
		for _, gi := range s.buckets[lv] {
			g := &s.c.Gates[gi]
			nv := g.Type.Eval(g.InNets, vals)
			out := g.Out
			if nv != vals[out] {
				s.undo = append(s.undo, undoEntry{plane, out, vals[out]})
				vals[out] = nv
				s.changed = append(s.changed, out)
				maxLv = s.enqueue(out, maxLv, within)
			}
		}
		s.buckets[lv] = s.buckets[lv][:0]
	}
	return s.changed
}

// enqueue schedules the consumers of net inside within not yet
// scheduled by the current Assign and returns the highest level
// scheduled, at least maxLv.
func (s *Simulator) enqueue(net, maxLv int, within []bool) int {
	for _, gi := range s.c.Fanout(net) {
		if within != nil && !within[s.c.Gates[gi].Out] {
			continue
		}
		if s.stamp[gi] != s.epoch {
			s.stamp[gi] = s.epoch
			lv := s.c.Level(gi)
			s.buckets[lv] = append(s.buckets[lv], gi)
			maxLv = max(maxLv, lv)
		}
	}
	return maxLv
}

// SimulateTriples fully simulates a two-pattern test given by the
// first- and second-pattern values of the primary inputs (in PIs
// order). The intermediate plane of a primary input is its pattern
// value when both patterns agree and are specified, x otherwise.
// The result maps every line ID to its value triple.
func SimulateTriples(c *Circuit, p1, p3 []tval.V) []tval.Triple {
	if len(p1) != len(c.PIs) || len(p3) != len(c.PIs) {
		panic("circuit: SimulateTriples pattern length mismatch")
	}
	mid := make([]tval.V, len(c.PIs))
	for i := range mid {
		mid[i] = tval.X
		if p1[i] != tval.X && p1[i] == p3[i] {
			mid[i] = p1[i]
		}
	}
	v1, v2, v3 := Evaluate(c, p1), Evaluate(c, mid), Evaluate(c, p3)
	out := make([]tval.Triple, len(c.Lines))
	for i := range out {
		out[i] = tval.NewTriple(v1[i], v2[i], v3[i])
	}
	return out
}

// Evaluate returns the value of every line, indexed by line ID, under
// one pattern of the primary-input values (in PIs order).
func Evaluate(c *Circuit, pattern []tval.V) []tval.V {
	vals := make([]tval.V, len(c.Lines))
	for i := range vals {
		vals[i] = tval.X
	}
	for i, pi := range c.PIs {
		vals[pi] = pattern[i]
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		vals[g.Out] = g.Type.Eval(g.InNets, vals)
	}
	// Nets are PI and stem line IDs; a branch reads its stem's value.
	for i := range c.Lines {
		vals[i] = vals[c.Lines[i].Net]
	}
	return vals
}
