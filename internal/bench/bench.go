// Package bench reads and writes circuits in the ISCAS-89 ".bench"
// netlist format and extracts the combinational logic of sequential
// circuits.
//
// Sequential elements (DFF) are handled the way the path delay fault
// literature does: each flip-flop output becomes a pseudo primary
// input, and each flip-flop data input becomes a pseudo primary output.
// The result is the "combinational logic of" the circuit, the object
// the DATE 2002 paper generates tests for.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
)

// Netlist is a parsed .bench file before combinational extraction.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []NetlistGate
}

// NetlistGate is one "out = TYPE(in, ...)" statement. DFFs keep the
// literal type name "DFF".
type NetlistGate struct {
	Out  string
	Type string
	In   []string
}

// Parse reads a .bench netlist. The name is used for error messages
// and the resulting circuit.
func Parse(name string, r io.Reader) (*Netlist, error) {
	nl := &Netlist{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case consumeDirective(line, "INPUT", func(arg string) {
			nl.Inputs = append(nl.Inputs, arg)
		}):
		case consumeDirective(line, "OUTPUT", func(arg string) {
			nl.Outputs = append(nl.Outputs, arg)
		}):
		default:
			g, err := parseGateLine(line)
			if err != nil {
				return nil, fmt.Errorf("bench: %s:%d: %v", name, lineNo, err)
			}
			nl.Gates = append(nl.Gates, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: %s: %v", name, err)
	}
	if len(nl.Inputs) == 0 {
		return nil, fmt.Errorf("bench: %s: no INPUT declarations", name)
	}
	if len(nl.Outputs) == 0 {
		return nil, fmt.Errorf("bench: %s: no OUTPUT declarations", name)
	}
	return nl, nil
}

func consumeDirective(line, kw string, f func(arg string)) bool {
	if !strings.HasPrefix(line, kw) {
		return false
	}
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return false
	}
	f(strings.TrimSpace(rest[1 : len(rest)-1]))
	return true
}

func parseGateLine(line string) (NetlistGate, error) {
	var g NetlistGate
	eq := strings.Index(line, "=")
	if eq < 0 {
		return g, fmt.Errorf("expected 'out = TYPE(inputs)', got %q", line)
	}
	g.Out = strings.TrimSpace(line[:eq])
	rest := strings.TrimSpace(line[eq+1:])
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return g, fmt.Errorf("malformed gate expression %q", rest)
	}
	g.Type = strings.ToUpper(strings.TrimSpace(rest[:open]))
	args := rest[open+1 : len(rest)-1]
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return g, fmt.Errorf("empty input name in %q", line)
		}
		g.In = append(g.In, a)
	}
	if g.Out == "" {
		return g, fmt.Errorf("empty output name in %q", line)
	}
	return g, nil
}

// State describes the sequential context of an extracted
// combinational circuit: which primary inputs are flip-flop outputs
// and where each flip-flop's next-state value is computed.
type State struct {
	// NumPI is the number of real primary inputs; c.PIs[:NumPI] are
	// real, c.PIs[NumPI:] are pseudo inputs (flip-flop outputs) in
	// flip-flop declaration order.
	NumPI int
	// FFDataNet[i] is the line ID of the net computing the next state
	// of flip-flop i (its data input), parallel to c.PIs[NumPI+i].
	FFDataNet []int
}

// NumFF returns the number of flip-flops.
func (s *State) NumFF() int { return len(s.FFDataNet) }

// Combinational extracts the combinational logic: DFF outputs become
// pseudo primary inputs (appended after the real inputs), DFF data
// inputs become pseudo primary outputs (appended after the real
// outputs). The gates are re-ordered topologically for circuit
// construction.
func (nl *Netlist) Combinational() (*circuit.Circuit, error) {
	c, _, err := nl.CombinationalWithState()
	return c, err
}

// CombinationalWithState is Combinational and additionally returns the
// sequential context needed by scan-application analyses.
func (nl *Netlist) CombinationalWithState() (*circuit.Circuit, *State, error) {
	b := circuit.NewBuilder(nl.Name)

	type comb struct {
		g     NetlistGate
		gtype circuit.GateType
	}
	var combGates []comb
	var pseudoIn []string  // DFF outputs
	var pseudoOut []string // DFF data inputs
	driver := make(map[string]bool)
	for _, in := range nl.Inputs {
		driver[in] = true
	}
	for _, g := range nl.Gates {
		if g.Type == "DFF" {
			if len(g.In) != 1 {
				return nil, nil, fmt.Errorf("bench: %s: DFF %s must have one input", nl.Name, g.Out)
			}
			pseudoIn = append(pseudoIn, g.Out)
			pseudoOut = append(pseudoOut, g.In[0])
			driver[g.Out] = true
			continue
		}
		gt, err := circuit.ParseGateType(g.Type)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: gate %s: %v", nl.Name, g.Out, err)
		}
		if driver[g.Out] {
			return nil, nil, fmt.Errorf("bench: %s: signal %s driven twice", nl.Name, g.Out)
		}
		driver[g.Out] = true
		combGates = append(combGates, comb{g, gt})
	}

	handles := make(map[string]int)
	for _, in := range nl.Inputs {
		handles[in] = b.AddInput(in)
	}
	for _, in := range pseudoIn {
		handles[in] = b.AddInput(in)
	}

	// Topological ordering of the combinational gates.
	byOut := make(map[string]*comb, len(combGates))
	for i := range combGates {
		byOut[combGates[i].g.Out] = &combGates[i]
	}
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var emit func(out string) error
	emit = func(out string) error {
		if _, isIn := handles[out]; isIn {
			return nil
		}
		cg, ok := byOut[out]
		if !ok {
			return fmt.Errorf("bench: %s: signal %s has no driver", nl.Name, out)
		}
		switch state[out] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("bench: %s: combinational cycle through %s", nl.Name, out)
		}
		state[out] = 1
		ins := make([]int, len(cg.g.In))
		for i, in := range cg.g.In {
			if err := emit(in); err != nil {
				return err
			}
			ins[i] = handles[in]
		}
		handles[out] = b.AddGate(cg.gtype, out, ins...)
		state[out] = 2
		return nil
	}
	for _, cg := range combGates {
		if err := emit(cg.g.Out); err != nil {
			return nil, nil, err
		}
	}

	outs := append(append([]string(nil), nl.Outputs...), pseudoOut...)
	seen := make(map[string]bool)
	for _, o := range outs {
		if seen[o] {
			// A signal can be both a primary output and feed several
			// flip-flops; a duplicate tap would be the same line twice.
			continue
		}
		seen[o] = true
		h, ok := handles[o]
		if !ok {
			if err := emit(o); err != nil {
				return nil, nil, err
			}
			h = handles[o]
		}
		b.MarkOutput(h)
	}
	c, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	st := &State{NumPI: len(nl.Inputs)}
	for _, o := range pseudoOut {
		st.FFDataNet = append(st.FFDataNet, c.Lines[handles[o]].ID)
	}
	return c, st, nil
}

// ParseCombinational parses a .bench netlist and extracts its
// combinational logic in one step.
func ParseCombinational(name string, r io.Reader) (*circuit.Circuit, error) {
	nl, err := Parse(name, r)
	if err != nil {
		return nil, err
	}
	return nl.Combinational()
}

// ParseCombinationalString is ParseCombinational over a string.
func ParseCombinationalString(name, src string) (*circuit.Circuit, error) {
	return ParseCombinational(name, strings.NewReader(src))
}

// Write emits a purely combinational circuit in .bench format. Branch
// lines are an artifact of the line model and are not written.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Lines[pi].Name)
	}
	// Primary outputs at the net level: the net of each PO-end line.
	outNames := make([]string, 0, len(c.POs))
	seen := make(map[string]bool)
	for _, po := range c.POs {
		n := c.Lines[c.Lines[po].Net].Name
		if !seen[n] {
			seen[n] = true
			outNames = append(outNames, n)
		}
	}
	for _, n := range outNames {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", n)
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		ins := make([]string, len(g.InNets))
		for i, net := range g.InNets {
			ins[i] = c.Lines[net].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(ins, ", "))
	}
	return bw.Flush()
}
