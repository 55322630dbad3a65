package robust

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/pathenum"
	"repro/internal/synth"
)

// TestConditionsGolden pins every A(p) alternative, in order, that
// Conditions and NonRobustConditions produce over the enumerated
// faults of two synthetic circuits with XOR gates (s953 has 2, s1196
// has 17): the SHA-256 of one line per alternative. A change to the
// path walk, the side-input values or the order in which XOR side
// values are tried fails here.
func TestConditionsGolden(t *testing.T) {
	cases := []struct {
		circuit   string
		robust    string
		nonRobust string
	}{
		{"s953",
			"4aaabd67e9eee7a7d9e641d9359b845c7f240d876a28783032ac5e6f66f255ad",
			"3509338fb82c527bdff9f8c2114aade0f902fde4bbec9fea1af35823be7bcb9f"},
		{"s1196",
			"e491fccffc3d598d321c2bbdc44a8150d6cf616a1097e6c6549d3d6ed0a7fd4b",
			"0adc2b0623bdc42d6808bb9944fd532bc465ba3ed04de40c81d423135e733be6"},
	}
	for _, tc := range cases {
		t.Run(tc.circuit, func(t *testing.T) {
			c := synth.MustGenerate(synth.BenchmarkProfiles[tc.circuit])
			res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 1000, Mode: pathenum.DistancePruned})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []struct {
				name string
				cond ConditionFunc
				want string
			}{{"robust", Conditions, tc.robust}, {"nonrobust", NonRobustConditions, tc.nonRobust}} {
				h := sha256.New()
				n := 0
				for i := range res.Faults {
					for a, q := range k.cond(c, &res.Faults[i]) {
						fmt.Fprintln(h, i, a, q.Nets, q.Vals)
						n++
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != k.want {
					t.Errorf("%s: %d alternatives over %d faults, sha=%s, want %s", k.name, n, len(res.Faults), got, k.want)
				}
			}
		})
	}
}
