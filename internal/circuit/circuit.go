// Package circuit models gate-level combinational circuits at the
// granularity used by path delay fault testing: circuit *lines*.
//
// A line is a primary input, a gate output (a fanout stem), or a fanout
// branch. A stem (or primary input) that feeds k ≥ 2 consumers — gate
// input pins or a primary-output tap — gets one branch line per
// consumer; a stem with a single consumer connects to it directly. This
// is the classic line numbering of the path delay fault literature: the
// length of a path is the number of lines along it, and fanout branches
// count (Pomeranz & Reddy, DATE 2002, Section 3.1 uses exactly this
// model for s27).
//
// Lines carry logic values through their *net*: the net of a branch is
// the net of its stem. Values live on nets; paths live on lines.
package circuit

import (
	"fmt"

	"repro/internal/tval"
)

// GateType identifies the boolean function of a gate.
type GateType uint8

// Supported gate types.
const (
	And GateType = iota
	Nand
	Or
	Nor
	Not
	Buf
	Xor
	Xnor
	numGateTypes
)

var gateTypeNames = [...]string{"AND", "NAND", "OR", "NOR", "NOT", "BUF", "XOR", "XNOR"}

func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType parses a gate type name (case-insensitive variants
// BUFF/BUF, INV/NOT are accepted).
func ParseGateType(s string) (GateType, error) {
	switch upper(s) {
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "NOT", "INV":
		return Not, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	}
	return 0, fmt.Errorf("circuit: unknown gate type %q", s)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Inverting reports whether the gate complements its AND/OR/XOR core
// function (NAND, NOR, NOT, XNOR).
func (t GateType) Inverting() bool {
	switch t {
	case Nand, Nor, Not, Xnor:
		return true
	}
	return false
}

// Controlling returns the controlling input value of the gate and true,
// or false for gates without a controlling value (XOR/XNOR/NOT/BUF).
func (t GateType) Controlling() (tval.V, bool) {
	switch t {
	case And, Nand:
		return tval.Zero, true
	case Or, Nor:
		return tval.One, true
	}
	return tval.X, false
}

// Eval evaluates the gate function over three-valued inputs: input
// pin k carries vals[in[k]], a value in {0, 1, x}. Net-indexed callers
// pass Gate.InNets and a value plane; line-indexed callers pass
// Gate.In.
//
// Eval does not branch on the inputs: it folds them into the set of
// values present and their XOR parity, and reads the output from the
// type's row of evalTable.
func (t GateType) Eval(in []int, vals []tval.V) tval.V {
	var m, p uint8
	for _, k := range in {
		v := vals[k]
		m |= 1 << v
		p ^= uint8(v)
	}
	return evalTable[t][(m<<1|p&1)&15]
}

// evalTable[t][m<<1|p] is the output of a gate of type t whose inputs
// hold the values in the set m (bit v set when some input is v), p
// being the parity of their ones: a controlling value dominates,
// otherwise any x gives x; a gate without a controlling value (XOR,
// and BUF and NOT as one-input XORs) gives the parity.
var evalTable = func() (tab [numGateTypes][16]tval.V) {
	for t := range numGateTypes {
		ctrl, hasCtrl := t.Controlling()
		for i := range tab[t] {
			m, p := i>>1, tval.V(i&1)
			v := p
			switch {
			case hasCtrl && m&(1<<ctrl) != 0:
				v = ctrl
			case m&(1<<tval.X) != 0:
				v = tval.X
			case hasCtrl:
				v = ctrl.Not()
			}
			if t.Inverting() {
				v = v.Not()
			}
			tab[t][i] = v
		}
	}
	return
}()

// LineKind distinguishes the three kinds of circuit lines.
type LineKind uint8

// Line kinds.
const (
	LinePI LineKind = iota
	LineStem
	LineBranch
)

func (k LineKind) String() string {
	switch k {
	case LinePI:
		return "PI"
	case LineStem:
		return "stem"
	case LineBranch:
		return "branch"
	}
	return fmt.Sprintf("LineKind(%d)", uint8(k))
}

// Line is one circuit line. The zero value is not a valid line; lines
// are created by Builder.Build.
type Line struct {
	ID   int
	Kind LineKind
	Name string

	// Net is the line ID of the value-carrying signal: the line itself
	// for PIs and stems, the stem for branches.
	Net int

	// Gate is the index of the driving gate for stems, -1 otherwise.
	Gate int

	// Stem is the stem line ID for branches, -1 otherwise.
	Stem int

	// ConsumerGate is the gate this line feeds directly (branches, and
	// PIs/stems with a single gate consumer); -1 otherwise.
	ConsumerGate int

	// IsPOEnd marks a line that terminates at a primary output tap:
	// paths ending here are complete.
	IsPOEnd bool

	// Succs lists the successor line IDs for path extension: the
	// branches of a multi-consumer stem, or the output stem of the
	// consumed gate. Empty for PO ends.
	Succs []int
}

// Gate is one logic gate. In holds the IDs of the lines feeding each
// input pin (branch lines where the source has fanout, otherwise the
// source PI/stem directly); InNets holds the nets those lines carry.
type Gate struct {
	Type   GateType
	Name   string // name of the output signal
	Out    int    // line ID of the output stem
	In     []int  // line IDs feeding the input pins
	InNets []int  // InNets[k] == Lines[In[k]].Net
}

// Circuit is an immutable combinational circuit.
type Circuit struct {
	Name  string
	Lines []Line
	Gates []Gate

	// PIs are the primary-input line IDs, in declaration order.
	PIs []int
	// POs are the PO-end line IDs (stems or PO-tap branches), in
	// declaration order of the outputs.
	POs []int

	// order is a topological order of gate indices.
	order []int

	// piIndex maps a PI line ID to its position in PIs.
	piIndex map[int]int

	// fanout[fanoutStart[net]:fanoutStart[net+1]] are the gates
	// consuming net, in gate order, one entry per input pin.
	fanout      []int
	fanoutStart []int
	// level is each gate's topological level: 0 when fed only by
	// primary inputs, else one more than its highest-level driver.
	level []int
}

// NumLines returns the total number of lines.
func (c *Circuit) NumLines() int { return len(c.Lines) }

// TopoGates returns gate indices in topological (evaluation) order.
// The returned slice must not be modified.
func (c *Circuit) TopoGates() []int { return c.order }

// Fanout returns the gates consuming net, in gate order, with one
// entry per input pin (a gate reading net on two pins appears twice).
// The returned slice must not be modified.
func (c *Circuit) Fanout(net int) []int {
	return c.fanout[c.fanoutStart[net]:c.fanoutStart[net+1]]
}

// PIIndex returns the position of PI line id within PIs, or -1.
func (c *Circuit) PIIndex(id int) int {
	if i, ok := c.piIndex[id]; ok {
		return i
	}
	return -1
}

// LineByName returns the first line whose name matches, or nil.
func (c *Circuit) LineByName(name string) *Line {
	for i := range c.Lines {
		if c.Lines[i].Name == name {
			return &c.Lines[i]
		}
	}
	return nil
}

// PathString formats a path (sequence of line IDs) using line names.
func (c *Circuit) PathString(path []int) string {
	s := "("
	for i, id := range path {
		if i > 0 {
			s += ","
		}
		s += c.Lines[id].Name
	}
	return s + ")"
}

// ValidatePath checks that path is a connected sequence of lines
// following the successor relation.
func (c *Circuit) ValidatePath(path []int) error {
	if len(path) == 0 {
		return fmt.Errorf("circuit: empty path")
	}
	for _, id := range path {
		if id < 0 || id >= len(c.Lines) {
			return fmt.Errorf("circuit: path references line %d outside circuit", id)
		}
	}
	for i := 0; i+1 < len(path); i++ {
		cur, next := path[i], path[i+1]
		found := false
		for _, s := range c.Lines[cur].Succs {
			if s == next {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("circuit: line %s does not feed line %s",
				c.Lines[cur].Name, c.Lines[next].Name)
		}
	}
	return nil
}

// IsCompletePath reports whether path starts at a PI and ends at a PO
// end.
func (c *Circuit) IsCompletePath(path []int) bool {
	if len(path) == 0 {
		return false
	}
	return c.Lines[path[0]].Kind == LinePI && c.Lines[path[len(path)-1]].IsPOEnd
}

// Stats summarizes circuit size.
type Stats struct {
	PIs, POs, Gates, Lines, Branches, Depth int
}

// Stats computes summary statistics. Depth is the maximum number of
// lines on any PI→PO path (the unit-delay length of the longest path).
func (c *Circuit) Stats() Stats {
	st := Stats{
		PIs:   len(c.PIs),
		POs:   len(c.POs),
		Gates: len(c.Gates),
		Lines: len(c.Lines),
	}
	for i := range c.Lines {
		if c.Lines[i].Kind == LineBranch {
			st.Branches++
		}
	}
	// Longest path by dynamic programming over the successor DAG.
	depth := make([]int, len(c.Lines))
	for i := range depth {
		depth[i] = -1
	}
	var longest func(id int) int
	longest = func(id int) int {
		if depth[id] >= 0 {
			return depth[id]
		}
		best := 1
		for _, s := range c.Lines[id].Succs {
			if d := 1 + longest(s); d > best {
				best = d
			}
		}
		depth[id] = best
		return best
	}
	for _, pi := range c.PIs {
		if d := longest(pi); d > st.Depth {
			st.Depth = d
		}
	}
	return st
}
