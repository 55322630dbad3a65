package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
)

// SequentialSource generates a synthetic *sequential* circuit in
// .bench format: the profile's combinational circuit with its last nFF
// inputs re-declared as flip-flop outputs, each flip-flop fed from one
// of the circuit's output nets. The result exercises the sequential
// extraction path (DFF handling) and the scan-application analyses on
// circuits larger than s27.
//
// The profile's PIs field counts the *total* combinational inputs;
// nFF of them become state bits, so the sequential circuit has
// PIs-nFF real primary inputs. nFF must not exceed the number of
// output nets of the generated circuit.
func SequentialSource(p Profile, nFF int) (string, error) {
	if nFF < 1 {
		return "", fmt.Errorf("synth: nFF must be positive")
	}
	if nFF >= p.PIs {
		return "", fmt.Errorf("synth: nFF (%d) must be below the input count (%d)", nFF, p.PIs)
	}
	c, err := Generate(p)
	if err != nil {
		return "", err
	}
	// Unique output net names, in PO order.
	var outNets []string
	seen := make(map[string]bool)
	for _, po := range c.POs {
		n := c.Lines[c.Lines[po].Net].Name
		if !seen[n] {
			seen[n] = true
			outNets = append(outNets, n)
		}
	}
	if len(outNets) < nFF {
		return "", fmt.Errorf("synth: circuit has %d output nets, need ≥ %d for flip-flops",
			len(outNets), nFF)
	}
	// The last nFF inputs become flip-flop outputs; the first nFF
	// output nets feed them. Deterministic choice keeps generation
	// reproducible.
	ffOut := make([]string, nFF)
	for i := 0; i < nFF; i++ {
		ffOut[i] = c.Lines[c.PIs[p.PIs-nFF+i]].Name
	}
	ffIn := outNets[:nFF]
	remaining := outNets[nFF:]
	if len(remaining) == 0 {
		// Keep at least one primary output so the sequential circuit
		// is observable.
		remaining = outNets[nFF-1 : nFF]
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s-seq (synthetic sequential, %d FFs)\n", p.Name, nFF)
	for i := 0; i < p.PIs-nFF; i++ {
		fmt.Fprintf(&sb, "INPUT(%s)\n", c.Lines[c.PIs[i]].Name)
	}
	sort.Strings(remaining)
	for _, n := range remaining {
		fmt.Fprintf(&sb, "OUTPUT(%s)\n", n)
	}
	for i := 0; i < nFF; i++ {
		fmt.Fprintf(&sb, "%s = DFF(%s)\n", ffOut[i], ffIn[i])
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		ins := make([]string, len(g.InNets))
		for k, net := range g.InNets {
			ins[k] = c.Lines[net].Name
		}
		fmt.Fprintf(&sb, "%s = %s(%s)\n", g.Name, gateTypeName(g.Type), strings.Join(ins, ", "))
	}
	return sb.String(), nil
}

func gateTypeName(t circuit.GateType) string { return t.String() }
