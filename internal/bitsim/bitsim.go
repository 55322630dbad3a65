// Package bitsim performs word-parallel three-plane simulation: up to
// 64 two-pattern tests are simulated through the circuit at once using
// bitwise operations, one bit position per test.
//
// Values are dual-rail encoded per plane: bit i of H is set when test
// i drives the net to 1, bit i of L when it drives it to 0; neither
// bit set means x. Tests may leave inputs unspecified: every gate rule
// computes the same three-valued result as circuit.SimulateTriples.
// This gives a ~64× throughput improvement for fault simulation over
// large test sets — the dominant cost of Table 5-style experiments —
// with results bit-identical to the scalar simulator (faultsim.Run).
// It is the one fault simulator of the engine, the CLIs and the
// experiments.
//
// A test set is graded in one way: a Program, built by Compile, holds
// a fault set's requirements as word offsets into the batch's one
// slab, stable (plane-1) terms first, so an alternative is a run of
// ANDs that stops once its mask is zero, and Program.Run scans the
// tests against it. Run, RunContext and Count compile a Program per
// call; the engine and the experiments compile one per fault set and
// keep it. The cube walk the program is checked against lives only in
// the package's tests.
package bitsim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// WordSize is the number of tests simulated per batch.
const WordSize = 64

// Batch holds the dual-rail planes of one batch of tests.
type Batch struct {
	c *circuit.Circuit
	n int // tests in this batch
	// w is the batch's one slab of words. Rail 0 of a plane is its H
	// word per net, rail 1 its L word: the word of (plane, rail, net)
	// is w[(2·plane+rail)·len(c.Lines)+net], the offset a Program
	// compiles each requirement to.
	w []uint64
	// h[p][net] bit i: test i drives value 1 on plane p.
	// l[p][net] bit i: test i drives value 0 on plane p.
	// Both are views of w.
	h, l [circuit.NumPlanes][]uint64
}

// Simulate simulates up to 64 tests in one pass.
//
//lint:ignore testonly the circuit package tests its simulators against one batch
func Simulate(c *circuit.Circuit, tests []circuit.TwoPattern) (*Batch, error) {
	b := newBatch(c)
	if err := b.load(tests, 0); err != nil {
		return nil, err
	}
	return b, nil
}

func newBatch(c *circuit.Circuit) *Batch {
	n := len(c.Lines)
	b := &Batch{c: c, w: make([]uint64, 2*circuit.NumPlanes*n)}
	for p := 0; p < circuit.NumPlanes; p++ {
		b.h[p] = b.w[2*p*n : (2*p+1)*n]
		b.l[p] = b.w[(2*p+1)*n : (2*p+2)*n]
	}
	return b
}

// load replaces the batch's contents with the simulation of tests,
// reusing the slab. base is the index of tests[0] in the caller's test
// set, for error messages. A rejected batch is left as it was.
//
// The inputs are gathered in blocks of 8 inputs by 8 tests. A
// pattern's values for a block's inputs are one word, a value per
// byte, and word operations find the bytes that are One and Zero: a
// block's 8 tests give, per rail, a word whose byte k holds input k's
// bits for those tests. Transposing the 8 such words of 64 tests gives
// each input's rail word. Inputs past the last whole block are
// gathered one by one. A byte that is neither One nor Zero, x or not
// a valid tval.V, is x on every plane.
func (b *Batch) load(tests []circuit.TwoPattern, base int) error {
	c := b.c
	if len(tests) == 0 || len(tests) > WordSize {
		return fmt.Errorf("bitsim: batch of %d tests (want 1..%d)", len(tests), WordSize)
	}
	m := len(c.PIs)
	for ti, tp := range tests {
		if len(tp.P1) != m || len(tp.P3) != m {
			return fmt.Errorf("bitsim: test %d has %d/%d values for %d inputs", base+ti, len(tp.P1), len(tp.P3), m)
		}
	}
	clear(b.w)
	b.n = len(tests)
	for i0 := 0; i0+8 <= m; i0 += 8 {
		// rail[r][tb] byte k: input i0+k's rail r bits (H0, L0, H2,
		// L2) for tests 8·tb to 8·tb+7.
		var rail [4][8]uint64
		for tb := 0; 8*tb < len(tests); tb++ {
			var h0, l0, h2, l2 uint64
			for j, tp := range tests[8*tb : min(8*tb+8, len(tests))] {
				v1, v3 := lanes(tp.P1[i0:]), lanes(tp.P3[i0:])
				h0 |= isZero(v1^allOne) << j
				l0 |= isZero(v1^allZero) << j
				h2 |= isZero(v3^allOne) << j
				l2 |= isZero(v3^allZero) << j
			}
			rail[0][tb], rail[1][tb], rail[2][tb], rail[3][tb] = h0, l0, h2, l2
		}
		for r := range rail {
			transpose(&rail[r])
		}
		for k, pi := range c.PIs[i0 : i0+8] {
			b.setInput(pi, rail[0][k], rail[1][k], rail[2][k], rail[3][k])
		}
	}
	for i := m &^ 7; i < m; i++ {
		var h0, l0, h2, l2 uint64
		for ti, tp := range tests {
			h0 |= is(tp.P1[i], tval.One) << ti
			l0 |= is(tp.P1[i], tval.Zero) << ti
			h2 |= is(tp.P3[i], tval.One) << ti
			l2 |= is(tp.P3[i], tval.Zero) << ti
		}
		b.setInput(c.PIs[i], h0, l0, h2, l2)
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		for p := 0; p < circuit.NumPlanes; p++ {
			b.evalGate(g, p)
		}
	}
	return nil
}

// setInput sets input net pi's words from its plane 0 and 2 rails. An
// input is stable, and so specified on plane 1, in the tests whose two
// patterns give it one value.
func (b *Batch) setInput(pi int, h0, l0, h2, l2 uint64) {
	b.h[0][pi], b.l[0][pi] = h0, l0
	b.h[1][pi], b.l[1][pi] = h0&h2, l0&l2
	b.h[2][pi], b.l[2][pi] = h2, l2
}

const (
	// allOne and allZero hold One and Zero in every byte: a byte of
	// w^allOne is 0 exactly where w holds One.
	allOne  = 0x0101010101010101 * uint64(tval.One)
	allZero = 0x0101010101010101 * uint64(tval.Zero)
	low7    = 0x7f7f7f7f7f7f7f7f // the low 7 bits of every byte
)

// lanes returns vs[0:8] as one word, vs[k] in byte k.
func lanes(vs []tval.V) uint64 {
	_ = vs[7]
	// Byte loads and shifts the compiler combines into one load.
	return uint64(vs[0]) | uint64(vs[1])<<8 | uint64(vs[2])<<16 | uint64(vs[3])<<24 |
		uint64(vs[4])<<32 | uint64(vs[5])<<40 | uint64(vs[6])<<48 | uint64(vs[7])<<56
}

// isZero returns bit 0 of byte k set exactly when byte k of w is 0.
// Adding 0x7f to a byte's low 7 bits carries into its bit 7 unless
// they are all 0, and never into the next byte.
func isZero(w uint64) uint64 {
	return ^((w&low7 + low7) | w | low7) >> 7
}

// is returns 1 if v is want, else 0: v^want-1 wraps to all ones
// exactly when v^want is 0.
func is(v, want tval.V) uint64 {
	return (uint64(v^want) - 1) >> 63
}

// transpose transposes the 8×8 byte matrix whose row i is w[i], byte
// k of w[i] being column k: afterwards byte k of w[i] is what byte i
// of w[k] was. It swaps the off-diagonal 4×4 blocks, then the
// off-diagonal 2×2 blocks within each quadrant, then single bytes.
func transpose(w *[8]uint64) {
	for i := 0; i < 4; i++ {
		swapBlocks(&w[i], &w[i+4], 32, 0x00000000ffffffff)
	}
	for _, i := range [4]int{0, 1, 4, 5} {
		swapBlocks(&w[i], &w[i+2], 16, 0x0000ffff0000ffff)
	}
	for i := 0; i < 8; i += 2 {
		swapBlocks(&w[i], &w[i+1], 8, 0x00ff00ff00ff00ff)
	}
}

// swapBlocks swaps the blocks of *x that keep does not cover with the
// blocks of *y that it does, shift bits apart.
func swapBlocks(x, y *uint64, shift uint, keep uint64) {
	*x, *y = *x&keep|*y<<shift&^keep, *x>>shift&keep|*y&^keep
}

func (b *Batch) evalGate(g *circuit.Gate, p int) {
	h, l := b.h[p], b.l[p]
	var oh, ol uint64
	switch g.Type {
	case circuit.Not:
		oh, ol = l[g.InNets[0]], h[g.InNets[0]]
	case circuit.Buf:
		oh, ol = h[g.InNets[0]], l[g.InNets[0]]
	case circuit.And, circuit.Nand:
		oh, ol = ^uint64(0), 0
		for _, net := range g.InNets {
			oh &= h[net]
			ol |= l[net]
		}
		if g.Type == circuit.Nand {
			oh, ol = ol, oh
		}
	case circuit.Or, circuit.Nor:
		oh, ol = 0, ^uint64(0)
		for _, net := range g.InNets {
			oh |= h[net]
			ol &= l[net]
		}
		if g.Type == circuit.Nor {
			oh, ol = ol, oh
		}
	case circuit.Xor, circuit.Xnor:
		oh, ol = 0, ^uint64(0) // parity starts at 0
		for _, net := range g.InNets {
			nh := (oh & l[net]) | (ol & h[net])
			nl := (oh & h[net]) | (ol & l[net])
			oh, ol = nh, nl
		}
		if g.Type == circuit.Xnor {
			oh, ol = ol, oh
		}
	}
	h[g.Out], l[g.Out] = oh, ol
}

// Value returns the simulated value of a line on a plane for one test.
func (b *Batch) Value(line, plane, test int) tval.V {
	net := b.c.Lines[line].Net
	bit := uint64(1) << uint(test)
	switch {
	case b.h[plane][net]&bit != 0:
		return tval.One
	case b.l[plane][net]&bit != 0:
		return tval.Zero
	}
	return tval.X
}

func batchMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Program is a fault set's detection conditions compiled for one
// circuit. Each requirement of each alternative cube becomes one
// term: the offset of the word it needs set in a Batch's slab. An
// alternative's mask is the AND of its terms' words, stopped once it
// is zero, and a fault's mask is the OR over its alternatives: the
// tests whose values cover one of the fault's alternatives. The
// plane-1 (stable) terms of an alternative come first: they fail most
// often, so the AND stops soonest. AND commutes, so the order changes
// where the loop stops and never the mask. A Program is not modified
// after Compile and may be shared.
type Program struct {
	c *circuit.Circuit
	// Fault i's alternatives are a in [faults[i], faults[i+1]); the
	// terms of alternative a are terms[alts[a]:alts[a+1]].
	faults, alts []int32
	terms        []int32
}

// Compile compiles the detection conditions of fcs on c.
func Compile(c *circuit.Circuit, fcs []robust.FaultConditions) *Program {
	// Size the arrays first, so the program holds no slack.
	nalts, nterms := 0, 0
	for i := range fcs {
		nalts += len(fcs[i].Alts)
		for k := range fcs[i].Alts {
			for _, v := range fcs[i].Alts[k].Vals {
				nterms += v.NumSpecified()
			}
		}
	}
	n := len(c.Lines)
	p := &Program{
		c:      c,
		faults: make([]int32, 1, len(fcs)+1),
		alts:   make([]int32, 1, nalts+1),
		terms:  make([]int32, 0, nterms),
	}
	// In one pass over an alternative's nets, its stable terms go
	// straight to terms and its plane 0 and 2 terms, per net in that
	// order, to rest, which follows them.
	var rest []int32
	for i := range fcs {
		for k := range fcs[i].Alts {
			q := &fcs[i].Alts[k]
			rest = rest[:0]
			for j, net := range q.Nets {
				v := q.Vals[j]
				if m := v.Mid(); m.Specified() {
					p.terms = append(p.terms, term(n, 1, m, net))
				}
				if a := v.P1(); a.Specified() {
					rest = append(rest, term(n, 0, a, net))
				}
				if a := v.P3(); a.Specified() {
					rest = append(rest, term(n, 2, a, net))
				}
			}
			p.terms = append(p.terms, rest...)
			p.alts = append(p.alts, int32(len(p.terms)))
		}
		p.faults = append(p.faults, int32(len(p.alts)-1))
	}
	return p
}

// term is the slab offset of the word that must be set for a net to
// hold v on plane pl: a 1 needs the H rail (0), a 0 the L rail (1).
func term(n, pl int, v tval.V, net int) int32 {
	return int32((2*pl+int(tval.One-v))*n + net)
}

// Detects returns the mask of tests in b detecting fault i of the
// compiled set. b must have been simulated on the program's circuit.
func (p *Program) Detects(b *Batch, i int) uint64 {
	full, w := batchMask(b.n), b.w
	var det uint64
	for a := p.faults[i]; a < p.faults[i+1]; a++ {
		mask := full
		ts := p.terms[p.alts[a]:p.alts[a+1]]
		// Test for zero once per 8 terms. Most alternatives of a
		// random batch are zero within their first 8, so this branch
		// predicts well, where a test per term mispredicts once per
		// alternative, at a random term; that cost twice the time.
		for len(ts) >= 8 && mask != 0 {
			mask &= w[ts[0]] & w[ts[1]] & w[ts[2]] & w[ts[3]] & w[ts[4]] & w[ts[5]] & w[ts[6]] & w[ts[7]]
			ts = ts[8:]
		}
		if mask != 0 {
			for _, off := range ts {
				mask &= w[off]
			}
		}
		det |= mask
	}
	return det
}

// Run returns, for each fault of the compiled set, the index of the
// first test detecting it, or -1. Each fault is dropped from the scan
// after its first detection. It returns ctx.Err() if ctx is canceled,
// checked between 64-test batches, and fails on a test whose patterns
// do not match the circuit's inputs, naming its index, if a fault is
// still undetected when its batch is reached.
func (p *Program) Run(ctx context.Context, tests []circuit.TwoPattern) ([]int, error) {
	n := len(p.faults) - 1
	firstDet := make([]int, n)
	active := make([]int, n)
	for i := range firstDet {
		firstDet[i] = -1
		active[i] = i
	}
	b := newBatch(p.c)
	for base := 0; base < len(tests) && len(active) > 0; base += WordSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := b.load(tests[base:min(base+WordSize, len(tests))], base); err != nil {
			return nil, err
		}
		kept := active[:0]
		for _, fi := range active {
			if mask := p.Detects(b, fi); mask != 0 {
				firstDet[fi] = base + bits.TrailingZeros64(mask)
			} else {
				kept = append(kept, fi)
			}
		}
		active = kept
	}
	return firstDet, nil
}

// Run is the word-parallel equivalent of faultsim.Run: it compiles fcs
// and runs the program on tests.
func Run(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) ([]int, error) {
	return RunContext(context.Background(), c, tests, fcs)
}

// RunContext is Run with cancellation, as Program.Run.
func RunContext(ctx context.Context, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) ([]int, error) {
	return Compile(c, fcs).Run(ctx, tests)
}

// Count returns how many faults the test set detects.
func Count(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) (int, error) {
	first, err := Run(c, tests, fcs)
	return Detected(first), err
}

// Detected counts the detected faults of a first-detection vector as
// returned by Run.
func Detected(first []int) int {
	n := 0
	for _, d := range first {
		if d >= 0 {
			n++
		}
	}
	return n
}
