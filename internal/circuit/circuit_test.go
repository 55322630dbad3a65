package circuit

import (
	"testing"

	"repro/internal/tval"
)

// buildSmall constructs y = NAND(a, OR(b, c)) with the OR also a PO, so
// the OR stem fans out to a gate and a PO tap.
func buildSmall(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("small")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	cc := b.AddInput("c")
	or := b.AddGate(Or, "or1", bb, cc)
	y := b.AddGate(Nand, "y", a, or)
	b.MarkOutput(or)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuilderSmall(t *testing.T) {
	c := buildSmall(t)
	if got := len(c.PIs); got != 3 {
		t.Fatalf("PIs = %d, want 3", got)
	}
	if got := len(c.POs); got != 2 {
		t.Fatalf("POs = %d, want 2", got)
	}
	if got := len(c.Gates); got != 2 {
		t.Fatalf("Gates = %d, want 2", got)
	}
	// Lines: a,b,c, or1, y (5 nets) + 2 branches of or1 (PO tap + y pin).
	if got := len(c.Lines); got != 7 {
		t.Fatalf("Lines = %d, want 7", got)
	}
	st := c.Stats()
	if st.Branches != 2 {
		t.Errorf("Branches = %d, want 2", st.Branches)
	}
	// Longest path: b -> or1 -> branch -> y = 4 lines.
	if st.Depth != 4 {
		t.Errorf("Depth = %d, want 4", st.Depth)
	}
}

func TestBuilderBranchStructure(t *testing.T) {
	c := buildSmall(t)
	or := c.LineByName("or1")
	if or == nil {
		t.Fatal("or1 line missing")
	}
	if len(or.Succs) != 2 {
		t.Fatalf("or1 should have 2 branch successors, got %d", len(or.Succs))
	}
	var poBranch, gateBranch *Line
	for _, s := range or.Succs {
		l := &c.Lines[s]
		if l.Kind != LineBranch {
			t.Fatalf("successor %s of fanout stem must be a branch", l.Name)
		}
		if l.Net != or.ID {
			t.Errorf("branch %s net = %d, want stem %d", l.Name, l.Net, or.ID)
		}
		if l.IsPOEnd {
			poBranch = l
		} else {
			gateBranch = l
		}
	}
	if poBranch == nil || gateBranch == nil {
		t.Fatal("expected one PO-tap branch and one gate branch")
	}
	if len(poBranch.Succs) != 0 {
		t.Error("PO-tap branch must be terminal")
	}
	if gateBranch.ConsumerGate < 0 ||
		c.Gates[gateBranch.ConsumerGate].Name != "y" {
		t.Error("gate branch must feed y")
	}
}

func TestBuilderSingleConsumerNoBranch(t *testing.T) {
	c := buildSmall(t)
	a := c.LineByName("a")
	if a.Kind != LinePI {
		t.Fatal("a must be a PI line")
	}
	if len(a.Succs) != 1 || c.Lines[a.Succs[0]].Name != "y" {
		t.Error("single-consumer PI must connect directly to the gate output stem")
	}
	if a.ConsumerGate < 0 || c.Gates[a.ConsumerGate].Name != "y" {
		t.Error("a.ConsumerGate must be y")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate name", func(t *testing.T) {
		b := NewBuilder("dup")
		b.AddInput("a")
		b.AddInput("a")
		if _, err := b.Build(); err == nil {
			t.Error("duplicate input name must fail")
		}
	})
	t.Run("no outputs", func(t *testing.T) {
		b := NewBuilder("noout")
		a := b.AddInput("a")
		b.AddGate(Not, "n", a)
		if _, err := b.Build(); err == nil {
			t.Error("circuit without outputs must fail")
		}
	})
	t.Run("dangling net", func(t *testing.T) {
		b := NewBuilder("dangle")
		a := b.AddInput("a")
		bb := b.AddInput("b")
		_ = bb
		n := b.AddGate(Not, "n", a)
		b.MarkOutput(n)
		if _, err := b.Build(); err == nil {
			t.Error("unconsumed input must fail")
		}
	})
	t.Run("not arity", func(t *testing.T) {
		b := NewBuilder("arity")
		a := b.AddInput("a")
		bb := b.AddInput("b")
		b.AddGate(Not, "n", a, bb)
		if _, err := b.Build(); err == nil {
			t.Error("2-input NOT must fail")
		}
	})
	t.Run("unknown net", func(t *testing.T) {
		b := NewBuilder("unknown")
		b.AddInput("a")
		b.AddGate(And, "g", 0, 99)
		if _, err := b.Build(); err == nil {
			t.Error("reference to unknown net must fail")
		}
	})
	t.Run("double output", func(t *testing.T) {
		b := NewBuilder("dblout")
		a := b.AddInput("a")
		n := b.AddGate(Not, "n", a)
		b.MarkOutput(n)
		b.MarkOutput(n)
		if _, err := b.Build(); err == nil {
			t.Error("marking a net output twice must fail")
		}
	})
}

func TestGateEval(t *testing.T) {
	v0, v1, vx := tval.Zero, tval.One, tval.X
	cases := []struct {
		t    GateType
		in   []tval.V
		want tval.V
	}{
		{And, []tval.V{v1, v1, v1}, v1},
		{And, []tval.V{v1, v0, vx}, v0},
		{Nand, []tval.V{v1, v1}, v0},
		{Nand, []tval.V{v0, vx}, v1},
		{Or, []tval.V{v0, v0}, v0},
		{Or, []tval.V{vx, v1}, v1},
		{Nor, []tval.V{v0, v0}, v1},
		{Nor, []tval.V{vx, v0}, vx},
		{Not, []tval.V{v0}, v1},
		{Buf, []tval.V{vx}, vx},
		{Xor, []tval.V{v1, v1}, v0},
		{Xor, []tval.V{v1, v0}, v1},
		{Xor, []tval.V{v1, vx}, vx},
		{Xnor, []tval.V{v1, v0}, v0},
	}
	for _, c := range cases {
		pins := make([]int, len(c.in))
		for k := range pins {
			pins[k] = k
		}
		if got := c.t.Eval(pins, c.in); got != c.want {
			t.Errorf("%v%v = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestControlling(t *testing.T) {
	if v, ok := And.Controlling(); !ok || v != tval.Zero {
		t.Error("AND controlling must be 0")
	}
	if v, ok := Nor.Controlling(); !ok || v != tval.One {
		t.Error("NOR controlling must be 1")
	}
	if _, ok := Xor.Controlling(); ok {
		t.Error("XOR has no controlling value")
	}
	if _, ok := Not.Controlling(); ok {
		t.Error("NOT has no controlling value")
	}
}

func TestParseGateType(t *testing.T) {
	for _, c := range []struct {
		s    string
		want GateType
	}{
		{"AND", And}, {"nand", Nand}, {"BUFF", Buf}, {"buf", Buf},
		{"INV", Not}, {"not", Not}, {"XNOR", Xnor},
	} {
		got, err := ParseGateType(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseGateType(%q) = %v,%v want %v", c.s, got, err, c.want)
		}
	}
	if _, err := ParseGateType("MUX"); err == nil {
		t.Error("ParseGateType(MUX) should fail")
	}
}

func TestValidatePath(t *testing.T) {
	c := buildSmall(t)
	b := c.LineByName("b")
	or := c.LineByName("or1")
	var gateBranch int
	for _, s := range or.Succs {
		if !c.Lines[s].IsPOEnd {
			gateBranch = s
		}
	}
	y := c.LineByName("y")
	good := []int{b.ID, or.ID, gateBranch, y.ID}
	if err := c.ValidatePath(good); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if !c.IsCompletePath(good) {
		t.Error("PI→PO path must be complete")
	}
	bad := []int{b.ID, y.ID}
	if err := c.ValidatePath(bad); err == nil {
		t.Error("disconnected path accepted")
	}
	if c.IsCompletePath([]int{or.ID, gateBranch, y.ID}) {
		t.Error("path not starting at a PI must not be complete")
	}
	if err := c.ValidatePath(nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestPathString(t *testing.T) {
	c := buildSmall(t)
	p := []int{c.LineByName("a").ID, c.LineByName("y").ID}
	if got := c.PathString(p); got != "(a,y)" {
		t.Errorf("PathString = %q", got)
	}
}
