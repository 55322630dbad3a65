package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// Cross-version goldens: the test count, the P0/P1 detection counts and
// the SHA-256 of the newline-joined test strings of fixed jobs. Unlike
// TestEngineParallelSerialGolden, which compares two runs of the same
// code, these figures were recorded once and pin the results across
// changes to justification, compaction and fault simulation: a change
// that alters any generated test fails here.
func TestCrossVersionGoldens(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		tests  int
		p0, p1 int
		sha    string
	}{
		{"s27/generate", Spec{Kind: KindGenerate, Circuit: "s27", NP0: 10, Seed: 1},
			3, 10, 0, "523dd3f2f2bae8a0e81c89d465199c4bb11b618ceecb00596defe84b55971c8b"},
		{"s27/enrich", Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1},
			3, 10, 16, "ef6a2d3295cfd341679e004e1af010c86ab8ad2f1f85d16709d67cec381bfdb4"},
		{"c17/generate", Spec{Kind: KindGenerate, Circuit: "c17", NP0: 10, Seed: 1},
			4, 10, 0, "934b8e9f3455b7aa42630d098da92f212b1fb57d7ddb3e8cdcdd6aec276b5081"},
		{"c17/enrich", Spec{Kind: KindEnrich, Circuit: "c17", NP0: 10, Seed: 1},
			4, 10, 5, "4ed8f5633aadb5592b9eec56b6761e1091a8f4a10b9618a948cb7f6e8db7b75e"},
		{"s27/enrich/bnb", Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1, UseBnB: true},
			3, 10, 16, "e9683c25a056515ccdd1387c04cddcf4d3c4526618909655c1c547f88b35d763"},
		{"s953/enrich/seed1", Spec{Kind: KindEnrich, Circuit: "s953", NP: 1000, NP0: 200, Seed: 1},
			54, 230, 33, "9e59bf89f635b5a981011825bfe45f221f73b3a6a8f6038532f691dd5b830246"},
		{"s953/enrich/seed2", Spec{Kind: KindEnrich, Circuit: "s953", NP: 1000, NP0: 200, Seed: 2},
			55, 230, 33, "0315d0fb0390335bb7d3dd4e4a6b994ab402c8ddbb42bc4309a29dae9b208cca"},
		{"b09/generate/uncomp", Spec{Kind: KindGenerate, Circuit: "b09", NP: 1000, NP0: 200, Seed: 1, Heuristic: "uncomp"},
			137, 211, 0, "f55ea63c1a1325a4ff021c469eb2a9fddf6f04689b6fd2a21453086e37923852"},
		{"b09/generate/arbit", Spec{Kind: KindGenerate, Circuit: "b09", NP: 1000, NP0: 200, Seed: 1, Heuristic: "arbit"},
			45, 212, 0, "c678b4de25ce71fbbb345bc9621ec0546a755069a151cd3002faa9995bd7a475"},
		{"b09/generate/length", Spec{Kind: KindGenerate, Circuit: "b09", NP: 1000, NP0: 200, Seed: 1, Heuristic: "length"},
			43, 213, 0, "01f357bb2deb5091c698689719d1e403afab07495354e034a8ae3c1f553dd1c5"},
		{"c17/generate/collapse", Spec{Kind: KindGenerate, Circuit: "c17", NP0: 10, Seed: 1, Collapse: true},
			4, 10, 0, "934b8e9f3455b7aa42630d098da92f212b1fb57d7ddb3e8cdcdd6aec276b5081"},
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := e.RunJob(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if v.Status != StatusDone {
				t.Fatalf("status %s: %s", v.Status, v.Error)
			}
			r := v.Result
			sum := sha256.Sum256([]byte(strings.Join(r.Tests, "\n")))
			got := hex.EncodeToString(sum[:])
			if r.TestCount != tc.tests || r.P0Detected != tc.p0 || r.P1Detected != tc.p1 || got != tc.sha {
				t.Errorf("got tests=%d p0=%d p1=%d sha=%s, want tests=%d p0=%d p1=%d sha=%s",
					r.TestCount, r.P0Detected, r.P1Detected, got, tc.tests, tc.p0, tc.p1, tc.sha)
			}
		})
	}

	// Fault simulation on s27: canonical lines alone, and with one each
	// of an uppercase X, padded whitespace, a comment and a blank line,
	// which the result renders canonically. The digest covers the
	// result's test strings and first-detection indices.
	canonical := []string{
		"0110100 -> 1010010",
		"1x00101 -> 0x01101",
		"0000000 -> 1111111",
		"1011001 -> 1011000",
		"x1x0x1x -> 0101010",
	}
	mixed := []string{
		canonical[0],
		"0X10011 -> 1x1001X",
		canonical[1],
		"  1100110 ->   0011001\t",
		"# a comment",
		canonical[2],
		"",
		canonical[3],
		canonical[4],
	}
	grades := []struct {
		name            string
		tests           []string
		count, detected int
		sha             string
	}{
		{"s27/faultsim", canonical, 5, 5, "f5cdaf77ee2d453377a8f7d46116f927a3717cd1c88218a46fc4dc7c33714fb7"},
		{"s27/faultsim/mixed", mixed, 7, 5, "3441f133f4568631c8ff89bdd4cf831c8c16e49e176585a80dbef20ec583ba2b"},
	}
	for _, tc := range grades {
		t.Run(tc.name, func(t *testing.T) {
			v, err := e.RunJob(context.Background(), Spec{Kind: KindFaultSim, Circuit: "s27", NP0: 10, Tests: tc.tests})
			if err != nil {
				t.Fatal(err)
			}
			if v.Status != StatusDone {
				t.Fatalf("status %s: %s", v.Status, v.Error)
			}
			r := v.Result
			sum := sha256.Sum256([]byte(strings.Join(r.Tests, "\n") + "\n" + fmt.Sprint(r.FirstDetect)))
			got := hex.EncodeToString(sum[:])
			if r.TestCount != tc.count || r.Detected != tc.detected || got != tc.sha {
				t.Errorf("got tests=%d detected=%d sha=%s, want tests=%d detected=%d sha=%s",
					r.TestCount, r.Detected, got, tc.count, tc.detected, tc.sha)
			}
		})
	}
}
