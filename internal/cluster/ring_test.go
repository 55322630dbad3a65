package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("digest-%04d", i)
	}
	return keys
}

// Two rings built with the same fleet — in different orders — agree on
// every assignment: placement depends only on the membership set.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(0)
	b := NewRing(0)
	for _, n := range []string{"b0", "b1", "b2"} {
		a.Add(n)
	}
	for _, n := range []string{"b2", "b0", "b1"} {
		b.Add(n)
	}
	for _, k := range testKeys(500) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("owner(%s) differs: %q vs %q", k, ao, bo)
		}
	}
}

// skipChain is the owner chain of key with the nodes in skip left
// out: how the coordinator routes around down backends.
func skipChain(r *Ring, key string, skip map[string]bool) []string {
	var out []string
	for _, n := range r.Owners(key, r.Len()) {
		if !skip[n] {
			out = append(out, n)
		}
	}
	return out
}

// Skipping a node moves only that node's keys; the others keep their
// owner — the property that preserves result-cache affinity across a
// backend failure. The ring itself is untouched, so the node reclaims
// exactly its keys when it stops being skipped.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"b0", "b1", "b2"} {
		r.Add(n)
	}
	skip := map[string]bool{"b1": true}
	moved := 0
	for _, k := range testKeys(2000) {
		before := r.Owner(k)
		after := skipChain(r, k, skip)[0]
		if after == "b1" {
			t.Fatalf("skipped node still owns %s", k)
		}
		if before != "b1" && after != before {
			t.Errorf("key %s moved %s -> %s though its owner stayed up", k, before, after)
		}
		if before == "b1" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("b1 owned no keys before it was skipped; balance is broken")
	}
}

// For every set D of skipped nodes, the filtered chain of the full
// ring equals the chain of a ring built from the remaining nodes: one
// static ring serves routing under any failure pattern.
func TestRingSkipEqualsRebuild(t *testing.T) {
	nodes := []string{"b0", "b1", "b2", "b3", "b4"}
	full := NewRing(0)
	for _, n := range nodes {
		full.Add(n)
	}
	keys := testKeys(2000)
	for mask := 0; mask < 1<<len(nodes); mask++ {
		skip := map[string]bool{}
		rest := NewRing(0)
		for i, n := range nodes {
			if mask&(1<<i) != 0 {
				skip[n] = true
			} else {
				rest.Add(n)
			}
		}
		for _, k := range keys {
			got, want := skipChain(full, k, skip), rest.Owners(k, rest.Len())
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("skip %v, key %s: filtered chain %v, rebuilt ring %v", skip, k, got, want)
			}
		}
	}
}

// With DefaultVNodes the key space splits within a reasonable factor
// of even across a small fleet.
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	nodes := []string{"b0", "b1", "b2", "b3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	keys := testKeys(4000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	want := len(keys) / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c < want/3 || c > want*3 {
			t.Errorf("node %s owns %d keys, want within [%d, %d]", n, c, want/3, want*3)
		}
	}
}

// Owners returns distinct nodes in ring order — the failover chain.
func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"b0", "b1", "b2"} {
		r.Add(n)
	}
	for _, k := range testKeys(100) {
		owners := r.Owners(k, 5)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s, 5) = %v, want all 3 nodes", k, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%s) repeats %s: %v", k, o, owners)
			}
			seen[o] = true
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners[0] = %s, Owner = %s", owners[0], r.Owner(k))
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(8)
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring Owner = %q", got)
	}
	if got := r.Owners("k", 3); got != nil {
		t.Fatalf("empty ring Owners = %v", got)
	}
	r.Add("b0")
	r.Add("b0") // idempotent
	if r.Len() != 1 || len(r.points) != 8 {
		t.Fatalf("Len = %d, points = %d, want 1 node / 8 points", r.Len(), len(r.points))
	}
}
