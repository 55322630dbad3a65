package testio

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/pathenum"
	"repro/internal/tval"
)

func TestTestsRoundTrip(t *testing.T) {
	c := bench.S27()
	tests := []circuit.TwoPattern{
		{P1: pattern("0110100"), P3: pattern("1010010")},
		{P1: pattern("xxxxxxx"), P3: pattern("1111111")},
	}
	var sb strings.Builder
	if err := WriteTests(&sb, tests); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTests(strings.NewReader(sb.String()), len(c.PIs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tests) {
		t.Fatalf("read %d tests, wrote %d", len(got), len(tests))
	}
	for i := range got {
		if got[i].String() != tests[i].String() {
			t.Errorf("test %d: %q != %q", i, got[i], tests[i])
		}
	}
}

func pattern(s string) []tval.V {
	out := make([]tval.V, len(s))
	for i := range s {
		switch s[i] {
		case '0':
			out[i] = tval.Zero
		case '1':
			out[i] = tval.One
		default:
			out[i] = tval.X
		}
	}
	return out
}

func TestReadTestsErrors(t *testing.T) {
	cases := []string{
		"0101",                 // missing arrow
		"010 -> 0101",          // wrong width left
		"0101 -> 01",           // wrong width right
		"01a1 -> 0101",         // bad character
		"0101 -> 0101 -> 0101", // double arrow
	}
	for _, src := range cases {
		if _, err := ReadTests(strings.NewReader(src), 4); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	// Comments and blanks are fine.
	got, err := ReadTests(strings.NewReader("# comment\n\n0101 -> 1111\n"), 4)
	if err != nil || len(got) != 1 {
		t.Errorf("comment handling broken: %v %v", got, err)
	}
}

func TestFaultsRoundTrip(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFaults(&sb, c, res.Faults); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFaults(strings.NewReader(sb.String()), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Faults) {
		t.Fatalf("read %d faults, wrote %d", len(got), len(res.Faults))
	}
	for i := range got {
		if got[i].Key() != res.Faults[i].Key() {
			t.Errorf("fault %d changed identity", i)
		}
		if got[i].Length != res.Faults[i].Length {
			t.Errorf("fault %d length %d != %d", i, got[i].Length, res.Faults[i].Length)
		}
	}
}

func TestReadFaultsErrors(t *testing.T) {
	c := bench.S27()
	cases := []string{
		"STR",                    // missing path
		"UPD G1,G12",             // bad direction
		"STR G1,NOPE",            // unknown line
		"STR G1,G13",             // disconnected path
		"STR G1,G12 extra field", // trailing junk
	}
	for _, src := range cases {
		if _, err := ReadFaults(strings.NewReader(src), c, nil); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

// A test line longer than bufio.Scanner's default 64 KiB token limit
// still reads.
func TestReadTestsLongLine(t *testing.T) {
	n := 40 << 10
	src := strings.Repeat("0", n) + " -> " + strings.Repeat("1", n) + "\n"
	got, err := ReadTests(strings.NewReader(src), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].String() != strings.TrimSpace(src) {
		t.Fatalf("read %d tests", len(got))
	}
}

func TestParseTests(t *testing.T) {
	lines := []string{
		"0110 -> 1010",
		"  0X10 -> 1x10 ",
		"# comment\n\n01x1 -> 1111",
		"",
		"\t0000->1111",
	}
	got, canon, err := ParseTests(lines, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0110 -> 1010", "0x10 -> 1x10", "01x1 -> 1111", "0000 -> 1111"}
	wantCanon := []string{"0110 -> 1010", "", "01x1 -> 1111", ""}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i] || canon[i] != wantCanon[i] {
			t.Errorf("test %d: %q canon %q, want %q canon %q", i, got[i], canon[i], want[i], wantCanon[i])
		}
	}
	// Appending to one pattern must not overwrite the next.
	_ = append(got[0].P1, tval.One)
	if got[0].P3[0] != tval.One {
		t.Error("append to P1 reached P3")
	}
	// Line numbers count the lines inside elements, as in the joined
	// text.
	_, _, err = ParseTests([]string{"0000 -> 1111", "# a\n0000 -> 111"}, 4)
	if err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Errorf("error %v, want one on line 3", err)
	}
}

// When every element is one canonical test line, canon is the input
// slice itself; any other element gives canon an array of its own.
func TestParseTestsSharesCanonicalLines(t *testing.T) {
	canonical := []string{"0110 -> 1010", "01x1 -> 1111", "0000 -> 1111"}
	_, canon, err := ParseTests(canonical, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(canon) != len(canonical) || &canon[0] != &canonical[0] {
		t.Fatalf("canon %q does not share the input's array", canon)
	}
	for _, odd := range []string{
		"01X1 -> 1111",
		" 01x1 -> 1111",
		"01x1 -> 1111\n0000 -> 0000",
		"# comment",
		"",
	} {
		for at := range canonical {
			lines := slices.Clone(canonical)
			lines[at] = odd
			in := slices.Clone(lines)
			_, canon, err := ParseTests(lines, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(canon) > 0 && &canon[0] == &lines[0] {
				t.Errorf("%q at %d: canon shares the input's array", odd, at)
			}
			if !slices.Equal(lines, in) {
				t.Errorf("%q at %d: ParseTests changed its input to %q", odd, at, lines)
			}
		}
	}
}
