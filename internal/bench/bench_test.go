package bench

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/circuit"
)

func TestParseS27(t *testing.T) {
	nl, err := Parse("s27", strings.NewReader(S27Source))
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Inputs) != 4 {
		t.Errorf("inputs = %d, want 4", len(nl.Inputs))
	}
	if len(nl.Outputs) != 1 {
		t.Errorf("outputs = %d, want 1", len(nl.Outputs))
	}
	dffs := 0
	for _, g := range nl.Gates {
		if g.Type == "DFF" {
			dffs++
		}
	}
	if dffs != 3 {
		t.Errorf("DFFs = %d, want 3", dffs)
	}
}

func TestS27CombinationalProfile(t *testing.T) {
	c := S27()
	st := c.Stats()
	// Combinational s27: 4 PIs + 3 FF outputs = 7 inputs; PO G17 plus
	// 3 FF data inputs = 4 outputs; 10 gates; 26 lines; depth 10 (the
	// paper's enumeration ends with paths of lengths 7..10).
	if st.PIs != 7 {
		t.Errorf("PIs = %d, want 7", st.PIs)
	}
	if st.POs != 4 {
		t.Errorf("POs = %d, want 4", st.POs)
	}
	if st.Gates != 10 {
		t.Errorf("Gates = %d, want 10", st.Gates)
	}
	if st.Lines != 26 {
		t.Errorf("Lines = %d, want 26 (as in the paper's Figure 1 numbering)", st.Lines)
	}
	if st.Branches != 9 {
		t.Errorf("Branches = %d, want 9", st.Branches)
	}
	if st.Depth != 10 {
		t.Errorf("Depth = %d, want 10", st.Depth)
	}
}

func TestS27KnownStructure(t *testing.T) {
	c := S27()
	// G11 = NOR(G5, G9) feeds G17, G10 and flip-flop G6: 3 consumers,
	// so its stem must have 3 branches (paper lines 22, 23, 24).
	g11 := c.LineByName("G11")
	if g11 == nil {
		t.Fatal("G11 missing")
	}
	if len(g11.Succs) != 3 {
		t.Fatalf("G11 fanout = %d, want 3", len(g11.Succs))
	}
	poEnds := 0
	for _, s := range g11.Succs {
		if c.Lines[s].IsPOEnd {
			poEnds++
		}
	}
	if poEnds != 1 {
		t.Errorf("G11 PO-tap branches = %d, want 1", poEnds)
	}
	// G13 = NOR(G2, G12) is a flip-flop input with no other consumer:
	// its stem is directly a PO end (paper line 15).
	g13 := c.LineByName("G13")
	if !g13.IsPOEnd || len(g13.Succs) != 0 {
		t.Error("G13 must be a direct PO end")
	}
}

func TestCombinationalGateOrder(t *testing.T) {
	// The s27 source deliberately lists gates out of topological
	// order; extraction must sort them.
	c := S27()
	seen := make(map[int]bool)
	for _, pi := range c.PIs {
		seen[pi] = true
	}
	for _, gi := range c.TopoGates() {
		g := c.Gates[gi]
		for _, in := range g.In {
			net := c.Lines[in].Net
			if !seen[net] {
				t.Fatalf("gate %s consumes %s before it is produced",
					g.Name, c.Lines[net].Name)
			}
		}
		seen[g.Out] = true
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no inputs", "OUTPUT(y)\ny = AND(a, b)\n"},
		{"no outputs", "INPUT(a)\n"},
		{"bad gate", "INPUT(a)\nOUTPUT(y)\ny = AND a, b\n"},
		{"missing equals", "INPUT(a)\nOUTPUT(y)\ny AND(a)\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.name, strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestCombinationalErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undriven", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"},
		{"cycle", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n"},
		{"double drive", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(b)\n"},
		{"dff arity", "INPUT(a)\nOUTPUT(y)\nq = DFF(a, y)\ny = NOT(q)\n"},
		{"unknown type", "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n"},
	}
	for _, c := range cases {
		nl, err := Parse(c.name, strings.NewReader(c.src))
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := nl.Combinational(); err == nil {
			t.Errorf("%s: expected extraction error", c.name)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := S27()
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseCombinationalString("s27rt", sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, sb.String())
	}
	st1, st2 := c.Stats(), c2.Stats()
	if st1 != st2 {
		t.Errorf("round trip changed stats: %+v vs %+v", st1, st2)
	}
	// Same signal names.
	n1 := SortedSignalNames(c)
	n2 := SortedSignalNames(c2)
	if len(n1) != len(n2) {
		t.Fatalf("signal count changed: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Errorf("signal %d: %s vs %s", i, n1[i], n2[i])
		}
	}
}

func TestOutputFeedingMultipleFFs(t *testing.T) {
	// One signal feeding two flip-flops must produce one PO tap, not
	// two identical taps.
	src := `INPUT(a)
OUTPUT(o)
q1 = DFF(n)
q2 = DFF(n)
n = NOT(a)
o = AND(q1, q2)
`
	c, err := ParseCombinationalString("multiff", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.POs); got != 2 { // o and n
		t.Errorf("POs = %d, want 2", got)
	}
	if got := len(c.PIs); got != 3 { // a, q1, q2
		t.Errorf("PIs = %d, want 3", got)
	}
}

func TestPseudoInputOrder(t *testing.T) {
	c := S27()
	names := make([]string, len(c.PIs))
	for i, pi := range c.PIs {
		names[i] = c.Lines[pi].Name
	}
	want := []string{"G0", "G1", "G2", "G3", "G5", "G6", "G7"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("PI order = %v, want %v", names, want)
		}
	}
}

func TestWritePureCombinational(t *testing.T) {
	b := circuit.NewBuilder("tiny")
	a := b.AddInput("a")
	n := b.AddGate(circuit.Not, "n", a)
	b.MarkOutput(n)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"INPUT(a)", "OUTPUT(n)", "n = NOT(a)"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestC17Profile(t *testing.T) {
	c := C17()
	st := c.Stats()
	// c17: 5 inputs, 2 outputs, 6 NAND gates. Fanout stems: 3 (→10,11),
	// 11 (→16,19), 16 (→22,23) → 6 branch lines, 17 lines total.
	if st.PIs != 5 || st.POs != 2 || st.Gates != 6 {
		t.Errorf("c17 stats wrong: %+v", st)
	}
	if st.Branches != 6 {
		t.Errorf("branches = %d, want 6", st.Branches)
	}
	if st.Lines != 17 {
		t.Errorf("lines = %d, want 17", st.Lines)
	}
	// Longest path: 3, 3->11, 11, 11->16, 16, 16->22, 22 = 7 lines
	// (input 3 fans out, so its branch counts as a line too).
	if st.Depth != 7 {
		t.Errorf("depth = %d, want 7", st.Depth)
	}
}

func TestC17FullyRobustlyTestable(t *testing.T) {
	// c17 is famously fully testable; all path delay faults should
	// survive conditions screening (it is NAND-only and shallow).
	c := C17()
	// Truth check of one path via simulation is covered elsewhere;
	// here just ensure every line is reachable and on some path.
	for id := range c.Lines {
		l := c.Lines[id]
		if l.Kind != circuit.LinePI && l.Kind != circuit.LineStem && l.Kind != circuit.LineBranch {
			t.Fatalf("unexpected line kind %v", l.Kind)
		}
	}
}

// SortedSignalNames returns all net-level signal names sorted.
func SortedSignalNames(c *circuit.Circuit) []string {
	var names []string
	for i := range c.Lines {
		if c.Lines[i].Kind != circuit.LineBranch {
			names = append(names, c.Lines[i].Name)
		}
	}
	sort.Strings(names)
	return names
}
