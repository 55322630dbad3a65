package robust

import (
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/tval"
)

// MaxAlternatives bounds the number of A(p) alternatives generated for
// paths through XOR/XNOR gates (each such gate doubles the choices for
// its stable side inputs). Faults exceeding the bound are treated as
// out of scope and reported undetectable.
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
func Conditions(c *circuit.Circuit, f *faults.Fault) []Cube {
	return conditions(c, f, true)
}

// NonRobustConditions computes the necessary assignments for
// *non-robust* detection of a path delay fault. The paper restricts
// itself to robust tests; non-robust tests are the natural extension
// supported by the same machinery (the whole downstream flow —
// justification, compaction, enrichment — is condition-set agnostic).
//
// A non-robust test only requires every off-path input to present the
// non-controlling value under the second pattern (xx,nc); the test is
// invalidated if other paths are also slow, which is exactly the
// guarantee robust tests add by demanding hazard-free stable side
// inputs on transitions toward the controlling value. XOR/XNOR side
// inputs still need a stable final value to define the propagated
// transition's polarity; we require the value only under the second
// pattern and enumerate both polarities as alternatives.
//
// Every robust test is also a non-robust test: the robust cube of a
// fault covers (is a superset of) one of its non-robust cubes, which
// TestNonRobustSubsumption verifies.
func NonRobustConditions(c *circuit.Circuit, f *faults.Fault) []Cube {
	return conditions(c, f, false)
}

// conditions walks the path of f, extending every alternative through
// each on-path gate under the robust or the non-robust criterion.
func conditions(c *circuit.Circuit, f *faults.Fault, robust bool) []Cube {
	src := tval.R
	if f.Dir == faults.SlowToFall {
		src = tval.F
	}
	first := altResult{tr: src}
	if !first.cube.add(c.Lines[f.Path[0]].Net, src) {
		return nil
	}
	alts := []altResult{first}

	for i := 1; i < len(f.Path); i++ {
		onPath := f.Path[i-1]
		lineID := f.Path[i]
		ln := &c.Lines[lineID]
		if ln.Kind == circuit.LineBranch {
			// Stem to branch: same signal, same transition.
			continue
		}
		g := &c.Gates[ln.Gate]
		var next []altResult
		for _, a := range alts {
			next = append(next, stepGate(c, g, onPath, a.cube, a.tr, robust)...)
			if len(next) > MaxAlternatives {
				next = next[:MaxAlternatives]
				break
			}
		}
		alts = next
		if len(alts) == 0 {
			return nil
		}
	}
	out := make([]Cube, len(alts))
	for i := range alts {
		out[i] = alts[i].cube
	}
	return out
}

// stepGate extends one alternative through gate g with the on-path
// input line onPath carrying transition tr. It returns zero or more
// extended alternatives (zero when the side requirements conflict with
// the cube). The two criteria differ only in the side-input values:
// where robust detection needs a stable, hazard-free value, non-robust
// detection needs that value under the second pattern only.
func stepGate(c *circuit.Circuit, g *circuit.Gate, onPath int, cube Cube, tr tval.Triple, robust bool) []altResult {
	switch g.Type {
	case circuit.Not:
		return []altResult{{cube: cube, tr: tr.Not()}}
	case circuit.Buf:
		return []altResult{{cube: cube, tr: tr}}
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		ctrl, _ := g.Type.Controlling()
		nc := ctrl.Not()
		// Off-path inputs need the non-controlling value under the
		// second pattern; on a transition toward the controlling value,
		// robust detection needs it stable and hazard-free.
		side := tval.NewTriple(tval.X, tval.X, nc)
		if robust && tr.P3() == ctrl {
			side = tval.NewTriple(nc, nc, nc)
		}
		q := cube
		for _, in := range g.In {
			if in == onPath {
				continue
			}
			if !q.add(c.Lines[in].Net, side) {
				return nil
			}
		}
		out := tr
		if g.Type.Inverting() {
			out = tr.Not()
		}
		return []altResult{{cube: q, tr: out}}
	case circuit.Xor, circuit.Xnor:
		// Every off-path input must hold a value (stable and
		// hazard-free for robust detection, final otherwise), tried 0
		// then 1; each choice preserves or flips the transition.
		results := []altResult{{cube: cube, tr: tr}}
		for _, in := range g.In {
			if in == onPath {
				continue
			}
			net := c.Lines[in].Net
			var expanded []altResult
			for _, r := range results {
				for _, v := range []tval.V{tval.Zero, tval.One} {
					sv := tval.TX.With(2, v)
					if robust {
						sv = tval.NewTriple(v, v, v)
					}
					q := r.cube.Clone()
					if !q.add(net, sv) {
						continue
					}
					nt := r.tr
					if v == tval.One {
						nt = nt.Not()
					}
					expanded = append(expanded, altResult{cube: q, tr: nt})
				}
			}
			results = expanded
			if len(results) == 0 {
				return nil
			}
		}
		if g.Type == circuit.Xnor {
			for i := range results {
				results[i].tr = results[i].tr.Not()
			}
		}
		return results
	}
	return nil
}

type altResult struct {
	cube Cube
	tr   tval.Triple
}
