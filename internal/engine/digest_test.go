package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
)

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

// The cache key addresses durable stores and replicas across versions.
// Its format is pinned here; when TestCrossVersionGoldens is
// re-recorded, bump resultVersion (and this golden with it) so stores
// written by the older build are never read as the new results.
func TestCacheKeyGolden(t *testing.T) {
	spec := Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1}
	const want = "02/c5ecacf0d7512f2d/b2147016c03ff14e"
	if got := cacheKey(CircuitDigest(bench.S27()), SpecDigest(spec)); got != want {
		t.Fatalf("cacheKey = %s, want %s (bump resultVersion whenever TestCrossVersionGoldens changes)", got, want)
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	v, err := e.RunJob(context.Background(), spec)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("run: %+v, %v", v, err)
	}
	if v.Result.CacheKey != want {
		t.Fatalf("result cache_key = %s, want %s", v.Result.CacheKey, want)
	}
}

// The key trusts the circuit's structure, not its name: two inline
// circuits called "s27" that differ in one gate must not share a
// result.
func TestCacheKeyInlineCircuitStructure(t *testing.T) {
	orig := bench.S27()
	variant, err := bench.ParseCombinationalString("s27",
		strings.Replace(bench.S27Source, "G8 = AND(G14, G6)", "G8 = NAND(G14, G6)", 1))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	var keys []string
	for _, c := range []*circuit.Circuit{orig, variant} {
		v, err := e.RunJob(context.Background(), Spec{Kind: KindEnrich, Circ: c, NP0: 10, Seed: 1})
		if err != nil || v.Status != StatusDone {
			t.Fatalf("run: %+v, %v", v, err)
		}
		if v.CacheHit {
			t.Fatalf("circuit %d was served another circuit's cached result", len(keys))
		}
		keys = append(keys, v.Result.CacheKey)
	}
	if keys[0] == keys[1] {
		t.Fatalf("structurally different circuits share cache key %s", keys[0])
	}
}

// Execution knobs are outside the key: a spec that differs only in its
// deadline and retry budget is served from the cache.
func TestCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	spec := Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1}
	first, err := e.RunJob(ctx, spec)
	if err != nil || first.Status != StatusDone {
		t.Fatalf("run: %+v, %v", first, err)
	}
	spec.TimeoutMS = 60000
	spec.MaxRetries = 3
	again, err := e.RunJob(ctx, spec)
	if err != nil || again.Status != StatusDone {
		t.Fatalf("rerun: %+v, %v", again, err)
	}
	if !again.CacheHit || again.Result.CacheKey != first.Result.CacheKey {
		t.Fatalf("knob-only change: cache_hit %t, key %s vs %s", again.CacheHit, again.Result.CacheKey, first.Result.CacheKey)
	}
}
