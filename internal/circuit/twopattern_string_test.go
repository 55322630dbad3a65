package circuit_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/testio"
	"repro/internal/tval"
)

// String renders one character per input value, and testio.ReadTests
// reads the rendering back to the same test.
func TestTwoPatternString(t *testing.T) {
	for _, tc := range []struct {
		tp   circuit.TwoPattern
		want string
	}{
		{circuit.TwoPattern{
			P1: []tval.V{tval.Zero, tval.One, tval.X},
			P3: []tval.V{tval.One, tval.Zero, tval.One},
		}, "01x -> 101"},
		{circuit.TwoPattern{
			P1: []tval.V{tval.X, tval.X},
			P3: []tval.V{tval.X, tval.Zero},
		}, "xx -> x0"},
		{circuit.TwoPattern{P1: []tval.V{}, P3: []tval.V{}}, " -> "},
	} {
		got := tc.tp.String()
		if got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
			continue
		}
		back, err := testio.ReadTests(strings.NewReader(got), len(tc.tp.P1))
		if err != nil {
			t.Fatalf("ReadTests(%q): %v", got, err)
		}
		if len(back) != 1 || back[0].String() != got ||
			!slices.Equal(back[0].P1, tc.tp.P1) || !slices.Equal(back[0].P3, tc.tp.P3) {
			t.Errorf("round trip of %q = %v", got, back)
		}
	}
}
