package engine

import "testing"

// SpecDigest is a wire contract, not an implementation detail: the
// cluster coordinator hashes it onto the ring and the engine embeds it
// in cache keys, so a format change silently breaks routing affinity
// between mixed coordinator/backend versions. These golden values pin
// the format; bump them only with a deliberate spec/v2 prefix change.
func TestSpecDigestGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{
			name: "enrich",
			spec: Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1},
			want: "b2147016c03ff14e4f41c110e15c6f6ff18daddcdbef1e7b5fa2b34ff4a21036",
		},
		{
			name: "generate-all-knobs",
			spec: Spec{Kind: KindGenerate, Circuit: "c17", NP: 8, Seed: 7, Heuristic: "length", UseBnB: true, Collapse: true},
			want: "111705fb983624a213b596a8865bdc2517d1fb65306a2c778ae07b435ff5695f",
		},
		{
			name: "faultsim-with-tests",
			spec: Spec{Kind: KindFaultSim, Circuit: "s27", Tests: []string{"000 -> 111", "101 -> 010"}},
			want: "4f1d91e3cc417ebf61cb4c3efc12434084f181956945cea6557c7fb1cdcb5f95",
		},
	}
	for _, tc := range cases {
		if got := SpecDigest(tc.spec); got != tc.want {
			t.Errorf("%s: SpecDigest = %s, want %s (format change breaks cluster routing affinity)", tc.name, got, tc.want)
		}
	}
}

// The digest normalizes before hashing, so the coordinator (hashing
// the raw client spec) and the engine (hashing the normalized spec)
// agree on placement.
func TestSpecDigestNormalization(t *testing.T) {
	raw := Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1}
	explicit := raw
	explicit.Heuristic = "values" // the default normalized() fills in
	if a, b := SpecDigest(raw), SpecDigest(explicit); a != b {
		t.Fatalf("default and explicit heuristic digests differ: %s vs %s", a, b)
	}

	// Fields outside the digest identity (retry/timeout plumbing) must
	// not move the key.
	tuned := raw
	tuned.MaxRetries = 5
	tuned.TimeoutMS = 9000
	if a, b := SpecDigest(raw), SpecDigest(tuned); a != b {
		t.Fatalf("execution knobs changed the digest: %s vs %s", a, b)
	}

	// Identity fields do move it.
	other := raw
	other.Seed = 2
	if SpecDigest(raw) == SpecDigest(other) {
		t.Fatal("different seeds produced the same digest")
	}
}
