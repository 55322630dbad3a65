package testio

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// testSetSeeds is the seed corpus of the test set fuzzers.
var testSetSeeds = []struct {
	src string
	n   int
}{
	{"0101010 -> 1111111\n", 7},
	{"# c\nxxxxxxx -> 0000000\n", 7},
	{"0 -> 1\n", 1},
	{"->", 4},
}

// FuzzReadTests checks the test set reader never panics and that every
// accepted test set round trips.
func FuzzReadTests(f *testing.F) {
	for _, s := range testSetSeeds {
		f.Add(s.src, s.n)
	}
	f.Fuzz(func(t *testing.T, src string, n int) {
		if n < 0 || n > 64 {
			return
		}
		tests, err := ReadTests(strings.NewReader(src), n)
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteTests(&sb, tests); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTests(strings.NewReader(sb.String()), n)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(again) != len(tests) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(tests))
		}
		for i := range tests {
			if tests[i].String() != again[i].String() {
				t.Fatalf("test %d changed: %q vs %q", i, tests[i], again[i])
			}
		}
	})
}

// FuzzParseTests checks that ParseTests over src split at sep reads
// what ReadTests reads from the pieces joined by '\n', or fails with
// the same error, that it marks a test canonical exactly when its
// trimmed line is the test's String, and that it leaves its input as
// it was.
func FuzzParseTests(f *testing.F) {
	for _, s := range testSetSeeds {
		f.Add(s.src, s.n, byte('\n'))
		f.Add(s.src, s.n, byte(';'))
	}
	f.Add(" 0X1 ->  x10\n\n#\n01x -> 01x\r\n", 3, byte(';'))
	f.Fuzz(func(t *testing.T, src string, n int, sep byte) {
		if n < 0 || n > 64 {
			return
		}
		lines := strings.Split(src, string(sep))
		in := slices.Clone(lines)
		joined := strings.Join(lines, "\n")
		want, wantErr := ReadTests(strings.NewReader(joined), n)
		got, canon, err := ParseTests(lines, n)
		if !slices.Equal(lines, in) {
			t.Fatalf("ParseTests changed its input %q to %q", in, lines)
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseTests error %v, ReadTests error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		var text []string
		for _, l := range strings.Split(joined, "\n") {
			if l = strings.TrimSpace(l); l != "" && l[0] != '#' {
				text = append(text, l)
			}
		}
		if len(got) != len(want) || len(canon) != len(got) || len(text) != len(got) {
			t.Fatalf("ParseTests read %d tests (%d canon), ReadTests %d, %d test lines", len(got), len(canon), len(want), len(text))
		}
		for i := range got {
			s := got[i].String()
			if s != want[i].String() {
				t.Fatalf("test %d: ParseTests %q, ReadTests %q", i, s, want[i])
			}
			if (canon[i] != "") != (s == text[i]) || canon[i] != "" && canon[i] != s {
				t.Fatalf("test %d: canon %q for line %q rendering %q", i, canon[i], text[i], s)
			}
		}
	})
}

// FuzzReadFaults checks the fault list reader never panics and every
// accepted list round trips against s27.
func FuzzReadFaults(f *testing.F) {
	f.Add("STR G1,G12,G12->G13,G13\n")
	f.Add("STF G2,G13\n")
	f.Add("STR X\n")
	f.Add("# nothing\n")
	f.Fuzz(func(t *testing.T, src string) {
		c := bench.S27()
		fs, err := ReadFaults(strings.NewReader(src), c, nil)
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteFaults(&sb, c, fs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFaults(strings.NewReader(sb.String()), c, nil)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(again) != len(fs) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(fs))
		}
		for i := range fs {
			if fs[i].Key() != again[i].Key() {
				t.Fatalf("fault %d changed identity", i)
			}
		}
	})
}
