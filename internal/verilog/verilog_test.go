package verilog

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/tval"
)

const c17Verilog = `// c17 in structural verilog
module c17 (N1,N2,N3,N6,N7,N22,N23);
input N1,N2,N3,N6,N7;
output N22,N23;
wire N10,N11,N16,N19;
/* six nand gates */
nand NAND2_1 (N10, N1, N3);
nand NAND2_2 (N11, N3, N6);
nand NAND2_3 (N16, N2, N11);
nand NAND2_4 (N19, N11, N7);
nand NAND2_5 (N22, N10, N16);
nand NAND2_6 (N23, N16, N19);
endmodule
`

const s27Verilog = `module s27(CK,G0,G1,G17,G2,G3);
input CK,G0,G1,G2,G3;
output G17;
wire G5,G6,G7,G8,G9,G10,G11,G12,G13,G14,G15,G16;
dff DFF_0(CK,G5,G10);
dff DFF_1(CK,G6,G11);
dff DFF_2(CK,G7,G13);
not NOT_0(G14,G0);
not NOT_1(G17,G11);
and AND2_0(G8,G14,G6);
or OR2_0(G15,G12,G8);
or OR2_1(G16,G3,G8);
nand NAND2_0(G9,G16,G15);
nor NOR2_0(G10,G14,G11);
nor NOR2_1(G11,G5,G9);
nor NOR2_2(G12,G1,G7);
nor NOR2_3(G13,G2,G12);
endmodule
`

func TestParseC17Verilog(t *testing.T) {
	c, err := ParseCombinational("c17", strings.NewReader(c17Verilog))
	if err != nil {
		t.Fatal(err)
	}
	// Must match the embedded .bench c17 structurally.
	want := bench.C17().Stats()
	got := c.Stats()
	if got != want {
		t.Errorf("verilog c17 stats %+v != bench c17 stats %+v", got, want)
	}
}

func TestParseS27VerilogMatchesBench(t *testing.T) {
	c, err := ParseCombinational("s27", strings.NewReader(s27Verilog))
	if err != nil {
		t.Fatal(err)
	}
	want := bench.S27().Stats()
	got := c.Stats()
	if got != want {
		t.Errorf("verilog s27 stats %+v != bench s27 stats %+v", got, want)
	}
	// The clock input must have been dropped.
	if c.LineByName("CK") != nil {
		t.Error("clock input CK leaked into the combinational circuit")
	}
	// Signals present.
	for _, n := range []string{"G0", "G5", "G17", "G13"} {
		if c.LineByName(n) == nil {
			t.Errorf("signal %s missing", n)
		}
	}
}

// TestBenchVsVerilogC17 checks that the Verilog and .bench readings of
// c17 compute the same function: under all 32 input patterns, every
// output, matched by name, carries the same value in both.
func TestBenchVsVerilogC17(t *testing.T) {
	const c17Bench = `# c17 with the verilog names
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
`
	a, err := bench.ParseCombinationalString("c17b", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCombinational("c17v", strings.NewReader(c17Verilog))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PIs) != 5 || len(b.PIs) != 5 || len(a.POs) != len(b.POs) {
		t.Fatalf("interfaces differ: %d/%d inputs, %d/%d outputs", len(a.PIs), len(b.PIs), len(a.POs), len(b.POs))
	}
	// pattern applies input code bit i to a's i-th input, in both
	// circuits by name.
	pattern := func(c *circuit.Circuit, code int) []tval.V {
		p := make([]tval.V, len(c.PIs))
		for i, pi := range c.PIs {
			j := a.PIIndex(a.LineByName(c.Lines[pi].Name).ID)
			p[i] = tval.V(code >> uint(j) & 1)
		}
		return p
	}
	for code := 0; code < 32; code++ {
		va, vb := circuit.Evaluate(a, pattern(a, code)), circuit.Evaluate(b, pattern(b, code))
		for _, po := range a.POs {
			name := a.Lines[a.Lines[po].Net].Name
			got, want := vb[b.LineByName(name).ID], va[a.Lines[po].Net]
			if got != want || want == tval.X {
				t.Fatalf("input code %05b: output %s = %v in verilog, %v in bench", code, name, got, want)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no module", "input a;\noutput y;\nnot N(y, a);\n"},
		{"unsupported", "module m(a,y);\ninput a;\noutput y;\nmux M(y, a, a, a);\nendmodule\n"},
		{"unterminated comment", "module m(a,y); /* oops\ninput a;\nendmodule\n"},
		{"malformed instance", "module m(a,y);\ninput a;\noutput y;\nnot N y, a;\nendmodule\n"},
		{"one port", "module m(a,y);\ninput a;\noutput y;\nnot N(y);\nendmodule\n"},
		{"dff arity", "module m(a,y);\ninput a;\noutput y;\ndff D(c1, c2, q, d);\nendmodule\n"},
		{"no outputs", "module m(a);\ninput a;\nnot N(x, a);\nendmodule\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.name, strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestTwoPortDFF(t *testing.T) {
	src := `module m(a, y);
input a;
output y;
wire q, n;
dff D(q, n);
not N(n, a);
buf B(y, q);
endmodule
`
	nl, err := Parse("m", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, st, err := nl.CombinationalWithState()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumFF() != 1 {
		t.Fatalf("NumFF = %d, want 1", st.NumFF())
	}
	if c.LineByName("q") == nil {
		t.Error("flip-flop output q missing")
	}
}

func TestFullFlowFromVerilog(t *testing.T) {
	// The parsed circuit must run through the whole ATPG flow.
	c, err := ParseCombinational("s27", strings.NewReader(s27Verilog))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PIs) != 7 {
		t.Fatalf("combinational inputs = %d, want 7", len(c.PIs))
	}
}
