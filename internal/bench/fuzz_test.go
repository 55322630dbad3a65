package bench

import (
	"strings"
	"testing"
)

// FuzzParseCombinational checks that arbitrary input never panics the
// parser or the combinational extraction, and that successful parses
// survive a write/re-parse round trip.
func FuzzParseCombinational(f *testing.F) {
	for _, src := range Corpus {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseCombinationalString("fuzz", src)
		if err != nil {
			return
		}
		// Valid circuits must round trip.
		var sb strings.Builder
		if err := Write(&sb, c); err != nil {
			t.Fatalf("write failed on parsed circuit: %v", err)
		}
		c2, err := ParseCombinationalString("fuzz2", sb.String())
		if err != nil {
			t.Fatalf("round trip failed: %v\noriginal:\n%s\nwritten:\n%s", err, src, sb.String())
		}
		if c.Stats() != c2.Stats() {
			t.Fatalf("round trip changed circuit: %+v vs %+v", c.Stats(), c2.Stats())
		}
	})
}
