package robust

import (
	"repro/internal/circuit"
	"repro/internal/tval"
)

// Implier propagates requirement cubes through a circuit, forward and
// backward, on all three planes of a two-pattern test. It detects the
// second kind of undetectable fault of Section 3.1: faults whose A(p)
// implies conflicting values on some line.
//
// The implementation is a fixpoint over per-gate rules:
//
//	forward:  the output merges the gate function of the inputs;
//	backward: a non-controlled output value forces all inputs
//	          non-controlling; a controlled output with exactly one
//	          undetermined input forces that input controlling; XOR
//	          outputs with one undetermined input force its parity;
//	          NOT/BUF force their input directly.
type Implier struct {
	c   *circuit.Circuit
	val [circuit.NumPlanes][]tval.V
	inQ []bool
	q   []int
	// conflict is set when an assignment contradicts a held value;
	// Rollback clears it.
	conflict bool

	// touched is the assignment log: the (plane, net) assignments made
	// since the last Rollback(0), in order. A mark is a log length;
	// Rollback undoes the assignments after it, so a run clears only
	// the lines it assigned instead of every line.
	touched []int32
}

// NewImplier creates an implier for the circuit.
func NewImplier(c *circuit.Circuit) *Implier {
	im := &Implier{c: c}
	for p := range im.val {
		im.val[p] = make([]tval.V, len(c.Lines))
		for i := range im.val[p] {
			im.val[p][i] = tval.X
		}
	}
	im.inQ = make([]bool, len(c.Gates))
	return im
}

// Imply runs the fixpoint from the cube's requirements. It returns the
// implied value of every line (as triples, indexed by line ID) and
// whether the cube is consistent; ok == false means a conflict was
// derived, i.e. any fault requiring this cube is undetectable.
func (im *Implier) Imply(cube *Cube) (vals []tval.Triple, ok bool) {
	if !im.ImplyConsistent(cube) {
		return nil, false
	}
	c := im.c
	vals = make([]tval.Triple, len(c.Lines))
	for id := range c.Lines {
		net := c.Lines[id].Net
		vals[id] = tval.NewTriple(im.val[0][net], im.val[1][net], im.val[2][net])
	}
	return vals, true
}

// Mark returns the current position of the assignment log, for a
// later Rollback.
func (im *Implier) Mark() int { return len(im.touched) }

// Rollback undoes every assignment made after mark, restoring the
// implied values as they were when Mark returned it. Rollback(0)
// clears all values.
func (im *Implier) Rollback(mark int) {
	for _, t := range im.touched[mark:] {
		im.val[int(t)%circuit.NumPlanes][int(t)/circuit.NumPlanes] = tval.X
	}
	im.touched = im.touched[:mark]
	// The queue fully drains on success; a conflict leaves entries
	// flagged.
	for _, gi := range im.q {
		im.inQ[gi] = false
	}
	im.q = im.q[:0]
	im.conflict = false
}

// Extend adds the cube's requirements to the implied values and runs
// the fixpoint again. When the values held are the implications of a
// cube base, a true result leaves the implications of base ∪ cube: the
// fixpoint is unique, so closure(base ∪ cube) equals
// closure(closure(base) ∪ cube). A false result means base ∪ cube is
// inconsistent; the values are then partial, and the caller must
// Rollback to a mark taken before the call.
func (im *Implier) Extend(cube *Cube) bool {
	for i, net := range cube.Nets {
		for p := 0; p < circuit.NumPlanes; p++ {
			im.assign(net, p, cube.Vals[i].At(p))
		}
	}
	for len(im.q) > 0 && !im.conflict {
		gi := im.q[len(im.q)-1]
		im.q = im.q[:len(im.q)-1]
		im.inQ[gi] = false
		im.implyGate(gi)
	}
	return !im.conflict
}

func (im *Implier) enqueueNet(net int) {
	if g := im.c.Lines[net].Gate; g >= 0 && !im.inQ[g] {
		im.inQ[g] = true
		im.q = append(im.q, g)
	}
	for _, g := range im.c.Fanout(net) {
		if !im.inQ[g] {
			im.inQ[g] = true
			im.q = append(im.q, g)
		}
	}
}

func (im *Implier) assign(net, plane int, v tval.V) {
	if v == tval.X || im.conflict {
		return
	}
	cur := im.val[plane][net]
	if cur == v {
		return
	}
	if cur != tval.X {
		im.conflict = true
		return
	}
	im.val[plane][net] = v
	im.touched = append(im.touched, int32(net*circuit.NumPlanes+plane))
	im.enqueueNet(net)
	// Primary inputs change at most once between the two patterns,
	// so a specified intermediate value forces both pattern values,
	// and equal specified pattern values force the intermediate.
	// Internal nets may glitch; the rule applies to PIs only.
	if im.c.Lines[net].Kind == circuit.LinePI {
		switch plane {
		case 1:
			im.assign(net, 0, v)
			im.assign(net, 2, v)
		default:
			other := 2 - plane
			if ov := im.val[other][net]; ov == v {
				im.assign(net, 1, v)
			}
		}
	}
}

// ImplyConsistent runs the fixpoint of Imply from cleared values but
// skips materializing the per-line triples; implied values are read
// back with Value.
func (im *Implier) ImplyConsistent(cube *Cube) bool {
	im.Rollback(0)
	return im.Extend(cube)
}

// Value returns the value implied for a line on a plane by the most
// recent Imply, ImplyConsistent, Extend or Rollback call.
func (im *Implier) Value(line, plane int) tval.V {
	return im.val[plane][im.c.Lines[line].Net]
}

func (im *Implier) implyGate(gi int) {
	g := &im.c.Gates[gi]
	for p := 0; p < circuit.NumPlanes; p++ {
		im.implyGatePlane(g, p)
	}
}

func (im *Implier) implyGatePlane(g *circuit.Gate, plane int) {
	vals := im.val[plane]
	in := g.InNets

	// Forward implication.
	im.assign(g.Out, plane, g.Type.Eval(in, vals))

	out := vals[g.Out]
	if out == tval.X {
		return
	}

	// Backward implication.
	switch g.Type {
	case circuit.Not:
		im.assign(in[0], plane, out.Not())
	case circuit.Buf:
		im.assign(in[0], plane, out)
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		core := out
		if g.Type.Inverting() {
			core = out.Not()
		}
		ctrl, _ := g.Type.Controlling()
		nc := ctrl.Not()
		if core == nc {
			// Non-controlled output: every input non-controlling.
			for _, net := range in {
				im.assign(net, plane, nc)
			}
		} else {
			// Controlled output: if exactly one input is not known
			// non-controlling, it must be controlling.
			unknown := -1
			count := 0
			for _, net := range in {
				switch vals[net] {
				case nc:
					continue
				case ctrl:
					return // already justified
				default:
					unknown = net
					count++
				}
			}
			if count == 1 {
				im.assign(unknown, plane, ctrl)
			}
			// count == 0 means all inputs are non-controlling while the
			// output is controlled: the forward pass will flag the
			// conflict.
		}
	case circuit.Xor, circuit.Xnor:
		target := out
		if g.Type == circuit.Xnor {
			target = out.Not()
		}
		parity := tval.Zero
		unknown := -1
		count := 0
		for _, net := range in {
			v := vals[net]
			if v == tval.X {
				unknown = net
				count++
				continue
			}
			parity = tval.Xor(parity, v)
		}
		if count == 1 {
			im.assign(unknown, plane, tval.Xor(parity, target))
		}
	}
}
