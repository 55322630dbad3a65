package robust

import (
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/tval"
)

// MaxAlternatives bounds the number of A(p) alternatives generated for
// paths through XOR/XNOR gates (each such gate doubles the choices for
// its stable side inputs). A fault exceeding the bound keeps its first
// MaxAlternatives alternatives and loses the rest; a test satisfying
// only a lost one does not count as detecting it.
const MaxAlternatives = 16

// Conditions computes A(p), the set of values a two-pattern test must
// assign to robustly detect fault f:
//
//   - the path source carries the fault's transition (0x1 or 1x0);
//   - at every on-path gate whose on-path input transitions *toward*
//     the controlling value, the off-path inputs carry the stable,
//     hazard-free non-controlling value (e.g. 000 for OR);
//   - at every on-path gate whose on-path input transitions *away from*
//     the controlling value, the off-path inputs carry the
//     non-controlling value under the second pattern (e.g. xx0 for OR);
//   - off-path inputs of on-path XOR/XNOR gates carry either stable
//     value, giving alternative condition sets.
//
// The result is a list of alternative cubes: a test detecting the
// fault must satisfy at least one alternative in full. An empty result
// means the fault is undetectable because its conditions conflict
// directly (the first kind of undetectable fault eliminated in Section
// 3.1).
//
// Conditions walks the path of f, extending every alternative through
// each on-path gate. It is the one-path case of the level step the
// screen walks a trie with.
func Conditions(c *circuit.Circuit, f *faults.Fault) []Cube {
	var cur, next level
	cur.start(c, f)
	for i := 1; i < len(f.Path); i++ {
		if c.Lines[f.Path[i]].Kind == circuit.LineBranch {
			// Stem to branch: same signal, same transition.
			continue
		}
		next.step(c, &cur, f.Path[i-1], f.Path[i])
		cur, next = next, cur
		if len(cur.alts) == 0 {
			return nil
		}
	}
	out := make([]Cube, len(cur.alts))
	for i := range cur.alts {
		out[i] = cur.alts[i].cube.Clone()
	}
	return out
}

// level is the A(p) alternative list of one path prefix, in the order
// Conditions reports it. A slot keeps its slices when the level is
// refilled, so a walk that reuses one level per depth allocates only
// while the lists grow.
type level struct {
	alts []alt
}

// alt is one alternative of a level.
type alt struct {
	cube Cube        // the requirements of the whole prefix
	tr   tval.Triple // the transition on the prefix's last line
	from int         // the alternative of the parent level it extends
	step Cube        // the requirements the last gate added, unsorted
}

// start sets l to the one alternative of the source of f.
func (l *level) start(c *circuit.Circuit, f *faults.Fault) {
	src := tval.R
	if f.Dir == faults.SlowToFall {
		src = tval.F
	}
	l.alts = l.alts[:0]
	l.push(&alt{}, 0, src).require(c.Lines[f.Path[0]].Net, src)
}

// step sets l to the alternatives of a prefix of parent's extended by
// line, the output of a gate whose input onPath ends the prefix: each
// alternative of parent in turn, extended through the gate, with the
// list cut at MaxAlternatives.
func (l *level) step(c *circuit.Circuit, parent *level, onPath, line int) {
	l.alts = l.alts[:0]
	g := &c.Gates[c.Lines[line].Gate]
	for k := range parent.alts {
		stepGate(c, g, onPath, l, &parent.alts[k], k)
		if len(l.alts) > MaxAlternatives {
			l.alts = l.alts[:MaxAlternatives]
			return
		}
	}
}

// push appends a copy of p's cube as the alternative of l extending
// parent alternative from, carrying transition tr.
func (l *level) push(p *alt, from int, tr tval.Triple) *alt {
	if len(l.alts) < cap(l.alts) {
		l.alts = l.alts[:len(l.alts)+1]
	} else {
		l.alts = append(l.alts, alt{})
	}
	a := &l.alts[len(l.alts)-1]
	a.cube.Nets = append(a.cube.Nets[:0], p.cube.Nets...)
	a.cube.Vals = append(a.cube.Vals[:0], p.cube.Vals...)
	a.step.Nets = a.step.Nets[:0]
	a.step.Vals = a.step.Vals[:0]
	a.tr, a.from = tr, from
	return a
}

// pop drops the last alternative, whose requirements conflict.
func (l *level) pop() { l.alts = l.alts[:len(l.alts)-1] }

// require adds a requirement to the alternative and to its step. It
// reports false when the requirement conflicts with the cube.
func (a *alt) require(net int, v tval.Triple) bool {
	a.step.Nets = append(a.step.Nets, net)
	a.step.Vals = append(a.step.Vals, v)
	return a.cube.add(net, v)
}

// stepGate appends to l the extensions through gate g of p, alternative
// from of the parent level, whose transition the on-path input line
// onPath carries: zero alternatives when the side requirements
// conflict with p's cube, several for an XOR/XNOR gate.
func stepGate(c *circuit.Circuit, g *circuit.Gate, onPath int, l *level, p *alt, from int) {
	switch g.Type {
	case circuit.Not:
		l.push(p, from, p.tr.Not())
	case circuit.Buf:
		l.push(p, from, p.tr)
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		ctrl, _ := g.Type.Controlling()
		nc := ctrl.Not()
		// Off-path inputs need the non-controlling value under the
		// second pattern; on a transition toward the controlling value,
		// they need it stable and hazard-free.
		side := tval.NewTriple(tval.X, tval.X, nc)
		if p.tr.P3() == ctrl {
			side = tval.NewTriple(nc, nc, nc)
		}
		out := p.tr
		if g.Type.Inverting() {
			out = out.Not()
		}
		a := l.push(p, from, out)
		for _, in := range g.In {
			if in != onPath && !a.require(c.Lines[in].Net, side) {
				l.pop()
				return
			}
		}
	case circuit.Xor, circuit.Xnor:
		// Every off-path input must hold a stable, hazard-free value,
		// tried 0 then 1 with the first input most significant; each
		// choice preserves or flips the transition.
		sides := 0
		for _, in := range g.In {
			if in != onPath {
				sides++
			}
		}
		out := p.tr
		if g.Type == circuit.Xnor {
			out = out.Not()
		}
	choices:
		for m := 0; m < 1<<sides; m++ {
			a := l.push(p, from, out)
			bit := sides
			for _, in := range g.In {
				if in == onPath {
					continue
				}
				bit--
				v := tval.Zero
				if m>>bit&1 == 1 {
					v = tval.One
					a.tr = a.tr.Not()
				}
				if !a.require(c.Lines[in].Net, tval.NewTriple(v, v, v)) {
					l.pop()
					continue choices
				}
			}
		}
	}
}
